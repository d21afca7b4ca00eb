"""Simulated network connecting replicas and clients.

The network models the three effects the paper's evaluation varies:

* **latency** — a base one-way delay per link plus jitter; multi-region
  topologies (Figure 14(c,d)) give different delays for intra- and
  inter-region links;
* **bandwidth** — every node has an outgoing NIC modelled as a FIFO serial
  link, so the time to put a message on the wire is ``size / bandwidth`` and
  large fan-outs (a primary broadcasting proposals to 127 backups) serialise
  at the sender exactly as they do on a real NIC (Figure 14(b));
* **unreliability** — crashed nodes, drop and rewrite rules and a latency factor,
  used by the fault injectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Dict, Iterable, KeysView, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.actor import Actor


@dataclass(frozen=True)
class LinkSpec:
    """Latency characteristics of one directed link."""

    delay: float
    jitter: float = 0.0


@dataclass
class RegionTopology:
    """Assignment of nodes to geographic regions.

    ``intra_delay`` applies between nodes in the same region and
    ``inter_delay`` between nodes in different regions, mirroring the
    Oregon / North Virginia / London / Zurich deployment of the paper.
    """

    regions: int
    intra_delay: float = 0.0005
    inter_delay: float = 0.040
    jitter_fraction: float = 0.1

    def region_of(self, node_id: int) -> int:
        """Region index of ``node_id`` (uniform round-robin placement)."""
        return node_id % max(1, self.regions)

    def link(self, sender: int, receiver: int, factor: float) -> LinkSpec:
        """Link spec between two nodes under this topology."""
        if self.region_of(sender) == self.region_of(receiver):
            delay = self.intra_delay * factor
        else:
            delay = self.inter_delay * factor
        return LinkSpec(delay=delay, jitter=delay * self.jitter_fraction)


@dataclass
class NetworkConfig:
    """Tunable parameters of the simulated network."""

    base_delay: float = 0.001
    jitter: float = 0.0002
    bandwidth_bytes_per_sec: float = 1_000e6 / 8
    topology: Optional[RegionTopology] = None


@dataclass
class Partition:
    """A network partition: nodes in different groups cannot communicate."""

    groups: Tuple[frozenset, ...]

    def blocks(self, sender: int, receiver: int, payload: object) -> bool:
        """True when this partition separates ``sender`` from ``receiver``."""
        for group in self.groups:
            if sender in group:
                return receiver not in group
        return False


DropRule = Callable[[int, int, object], bool]

# A rewrite rule may replace a payload in flight (Byzantine equivocation):
# it returns the substitute payload, or None to leave the message unchanged.
RewriteRule = Callable[[int, int, object], Optional[object]]


class Network:
    """Message fabric between registered actors.

    Actors are registered under integer node identifiers.  ``send`` computes
    a delivery time from NIC serialisation plus link propagation and then
    schedules the receiver's ``deliver`` callback on the shared simulator.
    """

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[DeterministicRng] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or NetworkConfig()
        self.rng = (rng or DeterministicRng(0)).fork("network")
        self.metrics = metrics or MetricsRegistry()
        self._actors: Dict[int, "Actor"] = {}
        self._nic_free_at: Dict[int, float] = {}
        self._drop_rules: list[DropRule] = []
        self._rewrite_rules: list[RewriteRule] = []
        self._down_nodes: Set[int] = set()
        # Observability hook (repro.obs.Tracer): when attached, every
        # delivery carries a flow edge correlating send and deliver in the
        # exported timeline.  None keeps the fast paths untouched.
        self.tracer = None
        # Counter objects are stable for the registry's lifetime (reset
        # mutates in place), so resolve them once instead of a string-keyed
        # dict lookup per message.
        metrics_registry = self.metrics
        self._c_sent = metrics_registry.counter("network.messages_sent")
        self._c_bytes = metrics_registry.counter("network.bytes_sent")
        self._c_dropped = metrics_registry.counter("network.messages_dropped")
        self._c_rewritten = metrics_registry.counter("network.messages_rewritten")
        self._c_delivered = metrics_registry.counter("network.messages_delivered")
        self.set_latency_factor(1.0)

    # -- membership -----------------------------------------------------

    def register(self, actor: "Actor") -> None:
        """Register an actor so it can receive messages."""
        if actor.node_id in self._actors:
            raise ValueError(f"node id {actor.node_id} already registered")
        self._actors[actor.node_id] = actor
        self._nic_free_at.setdefault(actor.node_id, 0.0)

    def actor(self, node_id: int) -> "Actor":
        """Look up the actor registered under ``node_id``."""
        return self._actors[node_id]

    def node_ids(self) -> KeysView[int]:
        """All registered node identifiers, as a live view that sees later registrations."""
        return self._actors.keys()

    # -- fault surface ---------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> None:
        """Install a rule that can drop messages (sender, receiver, payload)."""
        self._drop_rules.append(rule)

    def remove_drop_rule(self, rule: DropRule) -> None:
        """Remove one previously installed drop rule (no-op if absent).

        Healing a fault must remove only that fault's own rule so that
        overlapping fault windows do not heal each other early.
        """
        try:
            self._drop_rules.remove(rule)
        except ValueError:
            pass

    def add_rewrite_rule(self, rule: RewriteRule) -> None:
        """Install a rule that can replace payloads in flight (equivocation)."""
        self._rewrite_rules.append(rule)

    def remove_rewrite_rule(self, rule: RewriteRule) -> None:
        """Remove one previously installed rewrite rule (no-op if absent)."""
        try:
            self._rewrite_rules.remove(rule)
        except ValueError:
            pass

    def set_node_down(self, node_id: int, down: bool = True) -> None:
        """Mark a node as crashed: it neither sends nor receives."""
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        """True when the node has been marked as crashed."""
        return node_id in self._down_nodes

    def set_latency_factor(self, factor: float) -> None:
        """Scale every link's delay and jitter by ``factor``; the config is left as built."""
        self._latency_factor = factor
        self._default_link = LinkSpec(self.config.base_delay * factor, self.config.jitter * factor)

    # -- transmission ----------------------------------------------------

    def _link(self, sender: int, receiver: int) -> LinkSpec:
        """Link spec of a sender/receiver pair at the current latency factor.
        A topology's links are not memoized: it measured no faster (PR 24)."""
        config = self.config
        topology = config.topology
        if topology is None:
            return self._default_link
        return topology.link(sender, receiver, self._latency_factor)

    def send(self, sender: int, receiver: int, payload: object, size_bytes: int) -> bool:
        """Send ``payload`` from ``sender`` to ``receiver``.

        Returns True when the message was put on the wire and False when it
        was dropped (a crashed end or a drop rule).  A dropped message still
        consumes sender NIC time, except when the sender itself is down.
        """
        down = self._down_nodes
        if sender in down:
            return False
        self._c_sent.value += 1
        self._c_bytes.value += size_bytes

        # NIC serialisation at the sender: messages leave one after another.
        simulator = self.simulator
        config = self.config
        now = simulator._now
        nic = self._nic_free_at
        nic_free = nic.get(sender, 0.0)
        if nic_free < now:
            nic_free = now
        departure = nic_free + size_bytes / config.bandwidth_bytes_per_sec
        nic[sender] = departure

        if receiver in down:
            self._c_dropped.value += 1
            return False
        drop_rules = self._drop_rules
        if drop_rules and any(rule(sender, receiver, payload) for rule in drop_rules):
            self._c_dropped.value += 1
            return False

        rewrite_rules = self._rewrite_rules
        if rewrite_rules:
            for rule in rewrite_rules:
                rewritten = rule(sender, receiver, payload)
                if rewritten is not None:
                    payload = rewritten
                    self._c_rewritten.increment()

        link = self._default_link if config.topology is None else self._link(sender, receiver)
        jitter = link.jitter
        if jitter > 0.0:
            # The float uniform(-jitter, jitter) returns (see broadcast).
            propagation = link.delay + (-jitter + (jitter + jitter) * self.rng.random())
            if propagation < 0.0:
                propagation = 0.0
        else:
            propagation = link.delay
        delivery_delay = (departure - now) + propagation
        tracer = self.tracer
        if tracer is not None:
            flow_id = tracer.flow_begin(sender, payload.__class__.__name__, size=size_bytes)
            simulator.schedule_call(
                delivery_delay, self._deliver_traced, (flow_id, sender, receiver, payload)
            )
        else:
            simulator.schedule_call(delivery_delay, self._deliver, (sender, receiver, payload))
        return True

    def broadcast(self, sender: int, receivers: Iterable[int], payload: object, size_bytes: int) -> int:
        """Send ``payload`` to each receiver; returns how many were sent.

        This is a batched fast path: per-message invariants (NIC transmit
        time, counters, fault surface, simulator handles) are resolved once
        for the whole fan-out, and deliveries are scheduled without a closure
        allocation per receiver.  Counter updates, NIC accounting and RNG
        draws happen per receiver in iteration order, exactly as a loop of
        :meth:`send` calls would produce them.
        """
        down = self._down_nodes
        if sender in down:
            return 0
        simulator = self.simulator
        config = self.config
        # uniform(-j, j) is -j + (j - -j) * random(); j - -j is exactly j + j,
        # so drawing from random() directly yields the identical float.
        random = self.rng.random
        nic = self._nic_free_at
        c_sent = self._c_sent
        c_bytes = self._c_bytes
        c_dropped = self._c_dropped
        transmit_time = size_bytes / config.bandwidth_bytes_per_sec
        drop_rules = self._drop_rules
        rewrite_rules = self._rewrite_rules
        deliver = self._deliver
        queue = simulator._queue
        tracer = self.tracer
        # Simulated time cannot advance while the fan-out loop runs, and each
        # departure time strictly dominates the previous one, so the NIC clock
        # is carried in a local and written back each iteration (drop/rewrite
        # rules stay free to observe it).
        now = simulator._now
        nic_free = nic.get(sender, 0.0)
        if nic_free < now:
            nic_free = now
        # Without a topology every receiver shares one link spec; resolve it
        # once instead of per receiver (receiver ids are ignored then).
        shared_link = self._link(sender, sender) if config.topology is None else None
        sent = 0
        for receiver in receivers:
            # A drop rule may crash the sender mid-fan-out, so the down set
            # is re-checked per receiver just as in :meth:`send`.
            if sender in down:
                continue
            c_sent.value += 1
            c_bytes.value += size_bytes
            departure = nic_free + transmit_time
            nic[sender] = nic_free = departure
            if receiver in down:
                c_dropped.value += 1
                continue
            if drop_rules and any(rule(sender, receiver, payload) for rule in drop_rules):
                c_dropped.value += 1
                continue
            message = payload
            if rewrite_rules:
                for rule in rewrite_rules:
                    rewritten = rule(sender, receiver, message)
                    if rewritten is not None:
                        message = rewritten
                        self._c_rewritten.increment()
            link = shared_link if shared_link is not None else self._link(sender, receiver)
            jitter = link.jitter
            if jitter > 0.0:
                propagation = link.delay + (-jitter + (jitter + jitter) * random())
                if propagation < 0.0:
                    propagation = 0.0
            else:
                propagation = link.delay
            delivery_delay = (departure - now) + propagation
            if tracer is not None:
                flow_id = tracer.flow_begin(sender, message.__class__.__name__, size=size_bytes)
                simulator.schedule_call(
                    delivery_delay, self._deliver_traced, (flow_id, sender, receiver, message)
                )
            else:
                # Simulator.schedule_call inlined: the same (time, priority,
                # seq) key and live count, without a frame per receiver.  The
                # delay is never negative (departure >= now, propagation >=
                # 0), and the sequence counter is advanced on the simulator
                # itself because a drop or rewrite rule may schedule too.
                seq = simulator._seq
                simulator._seq = seq + 1
                heappush(queue, (now + delivery_delay, 0, seq, (deliver, (sender, receiver, message))))
                simulator._live += 1
            sent += 1
        return sent

    def _deliver(self, sender: int, receiver: int, payload: object) -> None:
        if receiver in self._down_nodes:
            self._c_dropped.value += 1
            return
        actor = self._actors.get(receiver)
        if actor is None:
            return
        self._c_delivered.value += 1
        actor.on_message(sender, payload)

    def _deliver_traced(self, flow_id: int, sender: int, receiver: int, payload: object) -> None:
        """Traced delivery: closes the flow edge, then delivers normally."""
        tracer = self.tracer
        if tracer is not None:
            tracer.flow_end(flow_id, receiver, payload.__class__.__name__)
        self._deliver(sender, receiver, payload)


__all__ = [
    "DropRule",
    "LinkSpec",
    "Network",
    "NetworkConfig",
    "Partition",
    "RegionTopology",
    "RewriteRule",
]
