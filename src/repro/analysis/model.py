"""Analytical performance model.

The large-scale experiments of the paper (128 replicas, hundreds of
thousands of transactions per second) cannot be replayed message-by-message
in a Python discrete-event simulator within a reasonable time budget, so the
figure benchmarks use this analytical model instead (the message-level
simulator validates the protocols at small scale; see the introduction of
EXPERIMENTS.md and ``python -m repro validate``).

The model computes, for one consensus decision (a batch of ``batch_size``
transactions), the load each protocol places on the four resources that
govern the evaluation, and takes the tightest bound:

* **NIC bandwidth** at the busiest replica (Section 4.2's ``T_bw``);
* **message-processing CPU** — per-message handling plus per-byte costs,
  which is what separates SpotLess's n² messages per decision from RCC's
  2n² (Section 6.4);
* **signature-verification CPU** — what limits Narwhal-HS and HotStuff;
* the **sequential execution ceiling** of the fabric (340 ktxn/s);
* the **message-delay critical path** for protocols that cannot overlap
  decisions (chained designs; Section 4.2's ``T_SpotLess1``).

Failures and Byzantine attacks scale the result according to the fraction of
views led by faulty primaries and the timeout overhead of detecting them.
Every proposal is priced at a full batch of ``batch_size``: the model
describes a saturated system, whose primaries always have a full batch to
propose.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.net.sizes import TRANSACTION_BYTES, MessageSizeModel


@dataclass(frozen=True)
class ResourceProfile:
    """Hardware/network resources available to each replica.

    Defaults approximate the paper's testbed: 16-core machines, an effective
    ~1.4 Gbit/s of usable per-replica consensus bandwidth, secp256k1
    signature verification around 80 µs, and ResilientDB's 340 ktxn/s
    sequential execution ceiling.
    """

    bandwidth_bytes_per_sec: float = 175e6
    cpu_cores: int = 16
    message_processing_rate: float = 2_000_000.0
    per_byte_processing_seconds: float = 2.4e-9
    decision_overhead_seconds: float = 3.1e-4
    signature_verify_seconds: float = 8.0e-5
    mac_seconds: float = 3.0e-7
    execution_rate_txn_per_sec: float = 340_000.0
    one_way_delay_seconds: float = 0.001
    regions: int = 1
    inter_region_delay_seconds: float = 0.040
    message_buffer_bytes: int = 65_536

    def effective_delay(self) -> float:
        """Average one-way delay given the number of regions."""
        if self.regions <= 1:
            return self.one_way_delay_seconds
        # With r regions holding n/r replicas each, a broadcast quorum crosses
        # regions for (r-1)/r of its destinations.
        cross_fraction = (self.regions - 1) / self.regions
        return (1 - cross_fraction) * self.one_way_delay_seconds + cross_fraction * self.inter_region_delay_seconds

    def effective_bandwidth(self) -> float:
        """Per-replica bandwidth, reduced when replicas span regions.

        Inter-region links offer less usable bandwidth than intra-region
        links (the paper notes geo-distribution both raises latency and
        lowers bandwidth); the reduction grows with the cross-region traffic
        fraction.
        """
        if self.regions <= 1:
            return self.bandwidth_bytes_per_sec
        cross_fraction = (self.regions - 1) / self.regions
        return self.bandwidth_bytes_per_sec / (1.0 + 1.5 * cross_fraction)

    def with_cores(self, cores: int) -> "ResourceProfile":
        """Copy of the profile with a different core count."""
        return replace(self, cpu_cores=cores)

    def with_bandwidth_mbit(self, mbit: float) -> "ResourceProfile":
        """Copy of the profile with a different NIC bandwidth in Mbit/s."""
        return replace(self, bandwidth_bytes_per_sec=mbit * 1e6 / 8)

    def with_regions(self, regions: int) -> "ResourceProfile":
        """Copy of the profile distributed over ``regions`` regions."""
        return replace(self, regions=regions)


@dataclass(frozen=True)
class Scenario:
    """One experiment operating point."""

    protocol: str
    num_replicas: int
    num_instances: Optional[int] = None
    batch_size: int = 100
    transaction_bytes: int = TRANSACTION_BYTES
    faulty_replicas: int = 0
    attack: str = "A1"
    offered_client_batches_per_primary: Optional[int] = None
    resources: ResourceProfile = field(default_factory=ResourceProfile)

    @property
    def n(self) -> int:
        """Number of replicas."""
        return self.num_replicas

    @property
    def f(self) -> int:
        """Tolerated faults."""
        return (self.num_replicas - 1) // 3

    @property
    def instances(self) -> int:
        """Concurrent instances for concurrent protocols (m)."""
        if self.num_instances is not None:
            return self.num_instances
        return self.num_replicas if self.protocol.lower() in ("spotless", "rcc") else 1

    def size_model(self) -> MessageSizeModel:
        """Wire-size model for this scenario's batch/transaction size."""
        return MessageSizeModel(batch_size=self.batch_size, transaction_bytes=self.transaction_bytes)


@dataclass(frozen=True)
class PredictedPerformance:
    """Model output for one scenario."""

    throughput_txn_per_sec: float
    latency_seconds: float
    bottleneck: str
    bounds: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Alias used by the experiment harness."""
        return self.throughput_txn_per_sec

    @property
    def latency(self) -> float:
        """Alias used by the experiment harness."""
        return self.latency_seconds


@dataclass(frozen=True)
class _CostProfile:
    """Per-decision resource usage of one protocol in one scenario.

    ``primary_bytes``/``primary_messages`` describe the work of the replica
    coordinating a decision; ``backup_bytes``/``backup_messages`` the work of
    every other replica.  For concurrent protocols with m instances a replica
    is the primary of 1/m of the decisions, so the busiest replica's
    amortised per-decision load is ``primary/m + backup·(m−1)/m``.
    """

    primary_bytes: float
    backup_bytes: float
    primary_messages: float
    backup_messages: float
    signature_verifies: float
    critical_path_delays: float
    critical_path_crypto_seconds: float
    pipeline_per_instance: float
    commit_depth_views: float
    instances: int
    amortization: int
    concurrent_chained: bool = False

    def busiest_bytes(self) -> float:
        """Sustained outgoing bytes per decision at the busiest replica.

        ``amortization`` is the number of consecutive decisions over which
        the busiest replica coordinates exactly one (n for rotating designs,
        the instance count for fixed-primary concurrent designs, 1 for a
        single fixed primary).
        """
        share = max(1, self.amortization)
        return self.primary_bytes / share + self.backup_bytes * (share - 1) / share

    def busiest_messages(self) -> float:
        """Sustained messages handled per decision at the busiest replica."""
        share = max(1, self.amortization)
        return self.primary_messages / share + self.backup_messages * (share - 1) / share


class PerformanceModel:
    """Predicts throughput and latency for any supported protocol."""

    def __init__(self, timeout_multiplier: float = 1.5) -> None:
        # Failure-detection timeouts are configured relative to the average
        # view duration (Section 6.3); the multiplier captures that ratio.
        self.timeout_multiplier = timeout_multiplier

    # ------------------------------------------------------------------
    # per-protocol cost profiles
    # ------------------------------------------------------------------

    def _profile(self, scenario: Scenario) -> _CostProfile:
        name = scenario.protocol.lower()
        if name == "spotless":
            return self._spotless_profile(scenario)
        if name == "rcc":
            return self._rcc_profile(scenario)
        if name == "pbft":
            return self._pbft_profile(scenario)
        if name == "hotstuff":
            return self._hotstuff_profile(scenario)
        if name in ("narwhal-hs", "narwhal"):
            return self._narwhal_profile(scenario)
        raise ValueError(f"unknown protocol {scenario.protocol!r}")

    def _spotless_profile(self, scenario: Scenario) -> _CostProfile:
        n = scenario.n
        sizes = scenario.size_model()
        proposal = sizes.proposal_bytes(sizes.batch_size)
        sync = sizes.control_bytes(signatures=1)
        reply = sizes.reply_bytes()
        primary_bytes = (n - 1) * (proposal + sync) + reply
        backup_bytes = (n - 1) * sync + reply
        return _CostProfile(
            primary_bytes=primary_bytes,
            backup_bytes=backup_bytes,
            primary_messages=3.0 * n,
            backup_messages=2.0 * n,
            signature_verifies=0.0,
            critical_path_delays=2.0,
            critical_path_crypto_seconds=0.0,
            pipeline_per_instance=1.0,
            commit_depth_views=3.0,
            instances=scenario.instances,
            amortization=n,
            concurrent_chained=True,
        )

    def _rcc_profile(self, scenario: Scenario) -> _CostProfile:
        n = scenario.n
        sizes = scenario.size_model()
        proposal = sizes.proposal_bytes(sizes.batch_size)
        control = sizes.control_bytes()
        reply = sizes.reply_bytes()
        primary_bytes = (n - 1) * proposal + 2.0 * (n - 1) * control + reply
        backup_bytes = 2.0 * (n - 1) * control + reply
        return _CostProfile(
            primary_bytes=primary_bytes,
            backup_bytes=backup_bytes,
            primary_messages=5.0 * n,
            backup_messages=4.0 * n,
            signature_verifies=0.0,
            critical_path_delays=3.0,
            critical_path_crypto_seconds=0.0,
            # Out-of-order processing inside every PBFT instance overlaps
            # several decisions per instance.
            pipeline_per_instance=8.0,
            commit_depth_views=1.0,
            instances=scenario.instances,
            amortization=scenario.instances,
        )

    def _pbft_profile(self, scenario: Scenario) -> _CostProfile:
        n = scenario.n
        sizes = scenario.size_model()
        proposal = sizes.proposal_bytes(sizes.batch_size)
        control = sizes.control_bytes()
        reply = sizes.reply_bytes()
        # The single primary is the busiest replica: it broadcasts the
        # proposal and participates in both all-to-all phases.
        primary_bytes = (n - 1) * proposal + 2.0 * (n - 1) * control + reply
        return _CostProfile(
            primary_bytes=primary_bytes,
            backup_bytes=2.0 * (n - 1) * control + reply,
            primary_messages=5.0 * n,
            backup_messages=4.0 * n,
            signature_verifies=0.0,
            critical_path_delays=3.0,
            critical_path_crypto_seconds=0.0,
            pipeline_per_instance=16.0,
            commit_depth_views=1.0,
            instances=1,
            amortization=1,
        )

    def _hotstuff_profile(self, scenario: Scenario) -> _CostProfile:
        n = scenario.n
        quorum = n - scenario.f
        sizes = scenario.size_model()
        proposal = sizes.proposal_bytes(sizes.batch_size) + sizes.certificate_bytes(quorum)
        vote = sizes.control_bytes(signatures=1)
        reply = sizes.reply_bytes()
        resources = scenario.resources
        # The leader rotates every view, so primary and backup costs are
        # amortised over n decisions (instances = n models that rotation).
        primary_bytes = (n - 1) * proposal + vote + reply
        backup_bytes = vote + reply
        # Critical path: the leader aggregates (verifies) n - f vote signatures
        # and every backup verifies the n - f signatures of the certificate.
        crypto = 2.0 * quorum * resources.signature_verify_seconds
        return _CostProfile(
            primary_bytes=primary_bytes,
            backup_bytes=backup_bytes,
            primary_messages=float(2 * n),
            backup_messages=3.0,
            signature_verifies=2.0 * quorum,
            critical_path_delays=2.0,
            critical_path_crypto_seconds=crypto,
            pipeline_per_instance=1.0,
            commit_depth_views=3.0,
            instances=1,
            amortization=n,
        )

    def _narwhal_profile(self, scenario: Scenario) -> _CostProfile:
        n = scenario.n
        sizes = scenario.size_model()
        certified_batch = sizes.batch_payload_bytes() + sizes.certificate_bytes(2 * scenario.f + 1)
        reply = sizes.reply_bytes()
        # Dissemination is spread over all replicas: the worker that created a
        # batch broadcasts it to everyone, other replicas acknowledge with a
        # signature and later handle the (small) ordering traffic.
        primary_bytes = (n - 1) * certified_batch + reply
        backup_bytes = sizes.control_bytes(signatures=1) * 3 + reply
        # Every replica verifies the 2f+1 signatures of the availability
        # certificate when the batch is disseminated and the n−f signatures of
        # the ordering certificate when the block commits (Section 6.4: "it
        # has to verify n − f digital signatures per block").
        verifies = float(2 * scenario.f + 1 + (n - scenario.f))
        return _CostProfile(
            primary_bytes=primary_bytes,
            backup_bytes=backup_bytes,
            primary_messages=float(2 * n),
            backup_messages=float(n),
            signature_verifies=verifies,
            critical_path_delays=4.0,
            critical_path_crypto_seconds=(2 * scenario.f + 1) * scenario.resources.signature_verify_seconds,
            pipeline_per_instance=4.0,
            commit_depth_views=3.0,
            instances=n,
            amortization=n,
        )

    # ------------------------------------------------------------------
    # throughput
    # ------------------------------------------------------------------

    def _work_seconds(self, scenario: Scenario, messages: float, num_bytes: float) -> float:
        """CPU/IO seconds for a replica to handle one decision's worth of work."""
        resources = scenario.resources
        core_scale = resources.cpu_cores / 16.0
        return (
            resources.decision_overhead_seconds / core_scale
            + messages / (resources.message_processing_rate * core_scale)
            + num_bytes * resources.per_byte_processing_seconds / core_scale
        )

    def _decision_work_seconds(self, scenario: Scenario, profile: _CostProfile) -> float:
        """Sustained busiest-replica seconds per decision (amortised over rotation)."""
        return self._work_seconds(scenario, profile.busiest_messages(), profile.busiest_bytes())

    def _view_duration(self, scenario: Scenario, profile: _CostProfile) -> float:
        """Duration of one consensus view at the coordinating replica.

        The critical path is the protocol's sequential message delays plus
        any serial cryptography, plus the coordinator's own work for the view
        (broadcasting its proposal) plus — for concurrent chained designs —
        the backup work it performs for every other instance running in the
        same view.  Instances share the replica's NIC and CPU, which is what
        eventually flattens the Figure 13 curve.
        """
        primary_work = self._work_seconds(scenario, profile.primary_messages, profile.primary_bytes)
        backup_work = self._work_seconds(scenario, profile.backup_messages, profile.backup_bytes)
        concurrent_backups = max(0, profile.instances - 1) if profile.concurrent_chained else 0
        return (
            profile.critical_path_delays * scenario.resources.effective_delay()
            + profile.critical_path_crypto_seconds
            + primary_work
            + concurrent_backups * backup_work
        )

    def saturated_throughput(self, scenario: Scenario) -> PredictedPerformance:
        """Throughput and latency when clients saturate the system."""
        profile = self._profile(scenario)
        resources = scenario.resources
        beta = float(scenario.batch_size)

        bandwidth_bound = beta * resources.effective_bandwidth() / profile.busiest_bytes()

        message_seconds = self._decision_work_seconds(scenario, profile)
        message_bound = beta / message_seconds if message_seconds > 0 else float("inf")

        if profile.signature_verifies > 0:
            # Signature verification parallelises over the crypto worker
            # threads, which share the cores with execution and messaging.
            crypto_cores = max(1.0, resources.cpu_cores / 2.0)
            signature_seconds = profile.signature_verifies * resources.signature_verify_seconds
            signature_bound = beta * crypto_cores / signature_seconds
        else:
            signature_bound = float("inf")

        execution_bound = resources.execution_rate_txn_per_sec

        view_duration = self._view_duration(scenario, profile)
        concurrent_decisions = max(1.0, profile.instances * profile.pipeline_per_instance)
        delay_bound = beta * concurrent_decisions / view_duration if view_duration > 0 else float("inf")

        bounds = {
            "bandwidth": bandwidth_bound,
            "message_cpu": message_bound,
            "signature_cpu": signature_bound,
            "execution": execution_bound,
            "message_delay": delay_bound,
        }
        bottleneck = min(bounds, key=lambda key: bounds[key])
        throughput = bounds[bottleneck]

        failure_scale, added_latency = self._failure_impact(scenario, view_duration)
        throughput *= failure_scale

        latency = self._latency(scenario, profile, view_duration, throughput) + added_latency
        return PredictedPerformance(
            throughput_txn_per_sec=throughput,
            latency_seconds=latency,
            bottleneck=bottleneck,
            bounds=bounds,
        )

    def predict(self, scenario: Scenario) -> PredictedPerformance:
        """Predict the operating point, honouring a bounded offered load."""
        saturated = self.saturated_throughput(scenario)
        offered = self._offered_load(scenario)
        if offered is None or offered >= saturated.throughput_txn_per_sec:
            return saturated
        profile = self._profile(scenario)
        view_duration = self._view_duration(scenario, profile)
        _, added_latency = self._failure_impact(scenario, view_duration)
        latency = self._latency(scenario, profile, view_duration, offered, capacity=saturated.throughput_txn_per_sec)
        return PredictedPerformance(
            throughput_txn_per_sec=offered,
            latency_seconds=latency + added_latency,
            bottleneck="offered_load",
            bounds=saturated.bounds,
        )

    def _offered_load(self, scenario: Scenario) -> Optional[float]:
        if scenario.offered_client_batches_per_primary is None:
            return None
        primaries = scenario.instances if scenario.protocol.lower() in ("spotless", "rcc") else 1
        batches = scenario.offered_client_batches_per_primary * primaries
        # Client batches per primary are interpreted, as in Figure 10, as the
        # amount of work available per second of saturated operation.
        return batches * scenario.batch_size

    # ------------------------------------------------------------------
    # failures and latency
    # ------------------------------------------------------------------

    def _failure_impact(self, scenario: Scenario, view_duration: float) -> tuple:
        """Return (throughput scale, added latency) for the scenario's faults."""
        k = scenario.faulty_replicas
        if k <= 0:
            return 1.0, 0.0
        n = scenario.n
        name = scenario.protocol.lower()
        attack = scenario.attack.upper()
        timeout = max(view_duration * self.timeout_multiplier, 0.01)
        faulty_fraction = min(1.0, k / n)

        if name in ("spotless", "rcc"):
            if attack in ("A2", "A3", "A4") and name == "spotless":
                # Victims recover through f+1 Sync messages and Ask-recovery,
                # so only a mild degradation remains (Figure 11).
                scale = 1.0 - 0.35 * faulty_fraction
                return scale, view_duration * 0.5
            healthy = 1.0 - faulty_fraction
            average_view = healthy * view_duration + faulty_fraction * timeout
            scale = healthy * (view_duration / average_view) if average_view > 0 else healthy
            added_latency = faulty_fraction * timeout * 2.0
            if name == "rcc":
                # The exponential back-off penalty keeps instances disabled for
                # extra rounds after the complaints, costing a little more
                # steady-state throughput and latency than SpotLess's design.
                scale *= 0.93
                added_latency *= 1.5
            return scale, added_latency
        if name == "pbft":
            # The primary is replica 0 and stays non-faulty in the paper's
            # experiments; backups failing slows quorum formation slightly.
            return 1.0 - 0.35 * faulty_fraction, view_duration * faulty_fraction
        if name == "hotstuff":
            healthy = 1.0 - faulty_fraction
            pacemaker_timeout = max(timeout, 0.05)
            average_view = healthy * view_duration + faulty_fraction * pacemaker_timeout
            scale = healthy * (view_duration / average_view) if average_view > 0 else healthy
            return scale, faulty_fraction * pacemaker_timeout * 3.0
        # Narwhal-HS: dissemination continues, ordering stalls on faulty leaders.
        healthy = 1.0 - faulty_fraction
        return max(0.2, healthy), view_duration * faulty_fraction * 2.0

    def _latency(
        self,
        scenario: Scenario,
        profile: _CostProfile,
        view_duration: float,
        throughput: float,
        capacity: Optional[float] = None,
    ) -> float:
        """Client latency at the given operating point.

        Latency has three parts: the consensus critical path (commit depth in
        views), the time for the message buffers / batches to fill at the
        offered rate (which *shrinks* as throughput grows — the effect the
        paper highlights for SpotLess and RCC in Figure 7(c)), and a queueing
        term as the system approaches saturation.
        """
        resources = scenario.resources
        # The commit path uses the *unloaded* per-view critical path (delays,
        # serial crypto and the coordinator's own transmission); saturation
        # effects are captured by the batching and queueing terms below.
        unloaded_view = (
            profile.critical_path_delays * resources.effective_delay()
            + profile.critical_path_crypto_seconds
            + self._work_seconds(scenario, profile.primary_messages, profile.primary_bytes)
        )
        commit_path = profile.commit_depth_views * unloaded_view + resources.effective_delay()
        throughput = max(throughput, 1.0)
        primaries = scenario.instances if scenario.protocol.lower() in ("spotless", "rcc") else 1
        per_primary_rate = throughput / max(1, primaries)
        batch_fill = scenario.batch_size / max(per_primary_rate, 1.0)
        buffer_fill = resources.message_buffer_bytes / max(
            profile.busiest_bytes() * throughput / scenario.batch_size, 1.0
        )
        queueing = 0.0
        if capacity is not None and capacity > 0:
            utilisation = min(0.95, throughput / capacity)
            queueing = (utilisation / (1.0 - utilisation)) * view_duration * 0.5
        return commit_path + min(batch_fill, 2.0) + min(buffer_fill, 2.0) + queueing


__all__ = ["PerformanceModel", "PredictedPerformance", "ResourceProfile", "Scenario"]
