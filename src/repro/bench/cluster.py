"""Message-level simulated clusters.

A :class:`SimulatedCluster` wires together a simulator, a network, a set of
protocol replicas, and clients driving a YCSB workload — either the default
closed-loop :class:`~repro.core.client.SpotLessClient` actors, or (when an
``arrival=`` load profile is given) a single
:class:`~repro.core.client.OpenLoopClientPool` offering load at a rate.
It is the integration surface used by the examples, the integration tests
and the failure/timeline experiments; the large-scale throughput figures use
the analytical model in :mod:`repro.analysis` instead (see the introduction
of EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.client import OpenLoopClientPool, SpotLessClient
from repro.core.config import SpotLessConfig
from repro.core.node import SpotLessReplica
from repro.net.sizes import MessageSizeModel
from repro.protocols.common import BftConfig
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.narwhal import NarwhalHsReplica
from repro.protocols.pbft import PbftReplica
from repro.protocols.rcc import RccReplica
from repro.runtime.replica import ReplicaRuntime
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import DeterministicRng
from repro.workload.arrival import LoadProfile
from repro.workload.ycsb import YcsbWorkload

#: Replica class of every implemented protocol, by name.
REPLICA_CLASSES = {
    "spotless": SpotLessReplica,
    "pbft": PbftReplica,
    "rcc": RccReplica,
    "hotstuff": HotStuffReplica,
    "narwhal-hs": NarwhalHsReplica,
    "narwhal": NarwhalHsReplica,
}


@dataclass
class ClusterResult:
    """Aggregate measurements of one simulated run."""

    duration: float
    executed_transactions: int
    confirmed_transactions: int
    throughput: float
    mean_latency: float
    committed_per_replica: Dict[int, int] = field(default_factory=dict)
    messages_sent: float = 0.0
    bytes_sent: float = 0.0

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.throughput:,.0f} txn/s, latency {self.mean_latency * 1000:.1f} ms, "
            f"{self.confirmed_transactions} confirmed over {self.duration:.1f} s"
        )


class SimulatedCluster:
    """A protocol deployment inside the discrete-event simulator."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        replicas: Sequence[ReplicaRuntime],
        clients: Sequence[SpotLessClient],
        metrics: MetricsRegistry,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.replicas = list(replicas)
        self.clients = list(clients)
        self.metrics = metrics

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        replica_class: type,
        config: object,
        clients: int = 4,
        outstanding_per_client: int = 8,
        network_config: Optional[NetworkConfig] = None,
        seed: int = 1,
        arrival: Optional[LoadProfile] = None,
    ) -> "SimulatedCluster":
        """The one place a replica or a client is constructed (fork names are pinned)."""
        simulator = Simulator()
        metrics = MetricsRegistry()
        rng = DeterministicRng(seed)
        network = Network(simulator, network_config or NetworkConfig(), rng=rng, metrics=metrics)
        size_model = MessageSizeModel(batch_size=config.batch_size)
        replicas = [
            replica_class(
                node_id=replica_id,
                config=config,
                simulator=simulator,
                network=network,
                size_model=size_model,
            )
            for replica_id in config.replica_ids()
        ]
        workload = YcsbWorkload(rng=rng)
        shared = dict(config=config, simulator=simulator, network=network, workload=workload)
        if arrival is not None:
            pool = OpenLoopClientPool(0, arrival=arrival, rng=rng.fork("client-pool"), **shared)
            return SimulatedCluster(simulator, network, replicas, [pool], metrics)
        client_actors = [
            SpotLessClient(c, outstanding=outstanding_per_client, rng=rng.fork(f"client-{c}"), **shared)
            for c in range(clients)
        ]
        return SimulatedCluster(simulator, network, replicas, client_actors, metrics)

    @staticmethod
    def spotless(
        config: SpotLessConfig,
        clients: int = 4,
        outstanding_per_client: int = 8,
        network_config: Optional[NetworkConfig] = None,
        seed: int = 1,
        arrival: Optional[LoadProfile] = None,
    ) -> "SimulatedCluster":
        """Build a SpotLess cluster with closed-loop YCSB clients.

        Passing ``arrival`` swaps the closed-loop actors for a single
        open-loop client pool driven by that load
        profile (``clients``/``outstanding_per_client`` are then ignored).
        """
        return SimulatedCluster.build(
            SpotLessReplica, config, clients, outstanding_per_client, network_config, seed, arrival
        )

    @staticmethod
    def for_protocol(
        protocol: str,
        num_replicas: int,
        num_instances: Optional[int] = None,
        batch_size: int = 100,
        clients: int = 4,
        outstanding_per_client: int = 8,
        network_config: Optional[NetworkConfig] = None,
        seed: int = 1,
        request_timeout: Optional[float] = None,
        view_change_timeout: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        arrival: Optional[LoadProfile] = None,
    ) -> "SimulatedCluster":
        """Build a cluster for any implemented protocol by name.

        ``protocol`` is one of ``spotless``, ``pbft``, ``rcc``, ``hotstuff``
        or ``narwhal-hs``.  ``request_timeout`` and ``view_change_timeout``
        override the baselines' failure-detection timers (the chaos scenarios
        use aggressive values so short adversarial runs can recover); they
        are ignored by SpotLess, whose adaptive timers are already small.
        ``checkpoint_interval`` overrides the recovery subsystem's checkpoint
        interval K (0 disables checkpointing and state transfer).
        ``arrival`` switches the workload from closed-loop client actors to
        one open-loop pool driven by that load profile.
        """
        name = protocol.lower()
        if name not in REPLICA_CLASSES:
            raise ValueError(f"unknown protocol {protocol!r}")
        overrides = {}
        if checkpoint_interval is not None:
            overrides["checkpoint_interval"] = checkpoint_interval
        if name == "spotless":
            config = SpotLessConfig(
                num_replicas=num_replicas,
                num_instances=num_instances or num_replicas,
                batch_size=batch_size,
                **overrides,
            )
        else:
            if request_timeout is not None:
                overrides["request_timeout"] = request_timeout
            if view_change_timeout is not None:
                overrides["view_change_timeout"] = view_change_timeout
            config = BftConfig(
                num_replicas=num_replicas,
                batch_size=batch_size,
                num_instances=num_instances or (num_replicas if name == "rcc" else 1),
                **overrides,
            )
        return SimulatedCluster.build(
            REPLICA_CLASSES[name], config, clients, outstanding_per_client, network_config, seed,
            arrival,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer, telemetry_interval: Optional[float] = None):
        """Attach a flight-recorder tracer to every component of the cluster.

        Registers one track per replica and client, wires the network's
        send→deliver flow edges, propagates the tracer into each replica's
        protocol sub-components, and (when ``telemetry_interval`` is given)
        starts a :class:`~repro.obs.tracer.TelemetrySampler` recording
        per-replica commit-frontier / view / instance-skew / queue-depth time
        series.

        Returns the sampler (or ``None`` when no interval was given).
        """
        for replica in self.replicas:
            tracer.register_track(replica.node_id, f"replica-{replica.node_id}")
        for client in self.clients:
            tracer.register_track(client.node_id, f"client-{client.client_id}")
        self.network.tracer = tracer
        for replica in self.replicas:
            replica.attach_tracer(tracer)
        for client in self.clients:
            client.tracer = tracer
        if telemetry_interval is None:
            return None
        from repro.obs.tracer import TelemetrySampler

        sampler = TelemetrySampler(self, tracer, interval=telemetry_interval)
        sampler.start()
        return sampler

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start replicas and clients without advancing simulated time."""
        for replica in self.replicas:
            replica.start()
        for client in self.clients:
            client.start()

    def run(self, duration: float, warmup: float = 0.0) -> ClusterResult:
        """Start the cluster and run it for ``duration`` simulated seconds.

        When ``warmup`` is positive, the throughput and latency measurements
        only cover the post-warmup window, mirroring the paper's 10 s warmup.
        """
        self.start()
        if warmup > 0.0:
            self.simulator.run_for(warmup)
            for client in self.clients:
                client.latency.reset()
                client.confirmed_transactions = 0
            executed_baseline = {id(r): r.executed_transactions for r in self.replicas}
        else:
            executed_baseline = {id(r): 0 for r in self.replicas}
        self.simulator.run_for(duration)
        return self._collect(duration, executed_baseline)

    def run_additional(self, duration: float) -> None:
        """Advance an already-started cluster by ``duration`` seconds."""
        self.simulator.run_for(duration)

    def _collect(self, duration: float, executed_baseline: Dict[int, int]) -> ClusterResult:
        confirmed = sum(client.confirmed_transactions for client in self.clients)
        latencies = [client.latency.mean() for client in self.clients if client.latency.count]
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
        executed = max(
            replica.executed_transactions - executed_baseline[id(replica)]
            for replica in self.replicas
        )
        committed = {replica.node_id: replica.executed_transactions for replica in self.replicas}
        return ClusterResult(
            duration=duration,
            executed_transactions=executed,
            confirmed_transactions=confirmed,
            throughput=confirmed / duration if duration > 0 else 0.0,
            mean_latency=mean_latency,
            committed_per_replica=committed,
            messages_sent=self.metrics.counter("network.messages_sent").value,
            bytes_sent=self.metrics.counter("network.bytes_sent").value,
        )

    # ------------------------------------------------------------------
    # consistency checks used by tests
    # ------------------------------------------------------------------

    def assert_no_divergence(self) -> None:
        """Raise AssertionError if replicas diverge.

        Runs the invariant oracle's safety checks once, which mirror the
        paper's non-divergence guarantee: any consensus slot decided by two
        replicas holds the same proposal (``agreement``), and the executed
        transaction sequences are prefixes of one another (``no-fork``).
        The first violation found is raised.
        """
        # Imported here: repro.scenarios builds clusters, so it imports this module.
        from repro.scenarios.oracle import InvariantOracle

        oracle = InvariantOracle(self)
        oracle.check_now()
        if oracle.violations:
            raise AssertionError(str(oracle.violations[0]))


__all__ = ["REPLICA_CLASSES", "ClusterResult", "SimulatedCluster"]
