"""RCC replica: concurrent PBFT instances under one global order."""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from repro.ledger.execution import make_noop_transaction
from repro.net.message import Message
from repro.net.sizes import MessageSizeModel
from repro.protocols.common import BftConfig
from repro.protocols.pbft.core import HANDLERS, PbftEnvironment, PbftInstanceCore
from repro.protocols.pbft.messages import (
    CommitMessage,
    NewViewMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.recovery.messages import CheckpointCertificate
from repro.runtime.replica import ReplicaRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workload.requests import Transaction


class RccReplica(ReplicaRuntime):
    """An RCC replica hosting ``num_instances`` concurrent PBFT instances.

    * each instance ``i`` is initially led by replica ``i`` (fixed primary
      until a view change replaces it);
    * client requests are assigned to instances by digest, as in SpotLess,
      so every primary proposes a disjoint share of the load;
    * decisions are ordered globally by ``(sequence, instance)``; a primary
      whose shard is empty proposes a no-op for sequence ``s`` only once
      another instance holds accepted content at a sequence ``>= s``, so a
      round that has work closes and an idle cluster proposes nothing;
    * a faulty primary is detected per instance by PBFT's own progress
      deadline and replaced by that instance's PBFT view change.  Instance
      ``i``'s deadline counts only what ``i`` owes: its slots in flight, its
      shard's requests no proposal has covered, and the no-ops the round rule
      asks of it.  RCC's complaints and exponential back-off are **not
      implemented**: no instance is ever skipped; a round waits out a
      stalled one's view change.
    """

    protocol_name = "rcc"

    def __init__(
        self,
        node_id: int,
        config: BftConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
    ) -> None:
        super().__init__(node_id, config, simulator, network, size_model)
        self.num_instances = config.num_instances
        # Highest sequence any instance accepted content for (a rise is what
        # obliges the other instances to fill the round up to it), the
        # instance that holds it, and the highest over every other instance.
        self._content_high = -1
        self._content_high_instance: Optional[int] = None
        self._runner_up_high = -1
        # Wire size of each consensus message class; the size model is fixed
        # per deployment.
        control = self.size_model.control_bytes
        self._wire_bytes = {
            PrePrepareMessage: self.size_model.proposal_bytes(),
            PrepareMessage: control(),
            CommitMessage: control(),
            ViewChangeMessage: control(signatures=config.quorum),
            NewViewMessage: control(signatures=config.quorum),
        }

        self.cores: Dict[int, PbftInstanceCore] = {}
        for instance_id in range(self.num_instances):
            self.cores[instance_id] = PbftInstanceCore(
                instance_id=instance_id,
                config=config,
                environment=PbftEnvironment(
                    replica_id=node_id,
                    broadcast=self._broadcast_core,
                    make_timer=self.timer,
                    next_batch=self._next_instance_batch,
                    on_decide=self._on_instance_decide,
                    now=lambda: self.simulator.now,
                    owed_work=partial(self._owed_work, instance_id),
                    # With one instance there is no round to fill.
                    on_content=self._on_content if self.num_instances > 1 else None,
                ),
            )
        # Each PBFT message goes to the core of the instance it names; a
        # ViewChange first passes the replica, which reads its checkpoint.
        for cls, handler in HANDLERS.items():
            self._routes[cls] = (handler, self.cores)
        self._routes[ViewChangeMessage] = (self._on_view_change, None)

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------

    def _assign_shard(self, transaction: Transaction) -> int:
        """Route the request to the instance responsible for its digest."""
        return transaction.instance_assignment(self.num_instances)

    def on_request_arrival(self, shard: int) -> None:
        """The shard's primary proposes; a backup arms that instance's deadline."""
        core = self.cores[shard]
        if core.is_primary():
            core.try_propose()
        elif self._owed_work(shard):
            core.arm_progress_timer()

    def _round_high(self, instance_id: int) -> int:
        """Highest content sequence of every instance but ``instance_id``."""
        if instance_id == self._content_high_instance:
            return self._runner_up_high
        return self._content_high

    def _owed_work(self, instance_id: int) -> int:
        """What instance ``instance_id`` owes beyond its slots in flight.

        One for uncovered requests in its shard, plus the sequences other
        instances have content for that it has not decided.
        """
        core = self.cores[instance_id]
        noops = max(0, self._round_high(instance_id) - core.decided_frontier)
        return noops + self.mempool.has_unproposed(instance_id)

    def _next_instance_batch(self, instance_id: int) -> Optional[Tuple[bytes, ...]]:
        """A batch of the shard's requests, else a no-op when the round needs one.

        Only another instance's content at or above this sequence calls for
        a no-op: the round cannot execute until this instance fills it.
        """
        sequence = self.cores[instance_id].next_sequence
        if self._round_high(instance_id) < sequence and not self.mempool.has_unproposed(instance_id):
            return None
        return self.take_batch_or_noop(instance_id, lambda: make_noop_transaction(instance_id, sequence))

    def _on_content(self, instance_id: int, sequence: int, digests: Tuple[bytes, ...]) -> None:
        """An instance accepted content: its requests are covered, and a new
        high-water mark obliges every other instance to fill the round."""
        self.mempool.mark_proposed(digests)
        if sequence <= self._content_high:
            if instance_id != self._content_high_instance and sequence > self._runner_up_high:
                self._runner_up_high = sequence
            return
        if instance_id != self._content_high_instance:
            self._runner_up_high = self._content_high
            self._content_high_instance = instance_id
        self._content_high = sequence
        for other, core in self.cores.items():
            if other == instance_id:
                continue
            if core.is_primary():
                if sequence >= core.next_sequence:
                    core.try_propose()
            elif sequence > core.decided_frontier:
                core.arm_progress_timer()

    def resolve_noop(self, digest: bytes, position: int) -> Optional[Transaction]:
        """Reconstruct the deterministic no-op proposed for ``position``."""
        instance_id = position % self.num_instances
        sequence = position // self.num_instances
        noop = make_noop_transaction(instance_id, sequence)
        if noop.digest() == digest:
            return noop
        return None

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def _broadcast_core(self, message: Message) -> None:
        """A core's broadcast: the fan-out to the peers, then the local
        delivery, routed as a peer's copy is."""
        self.broadcast(self._broadcast_peers, message, self._wire_bytes[message.__class__])
        self.on_message(self.node_id, message)

    def _on_tracer_attached(self) -> None:
        """Propagate the tracer into every instance core."""
        for core in self.cores.values():
            core.tracer = self.tracer

    def start(self) -> None:
        """Start every instance core."""
        for core in self.cores.values():
            core.start()

    def _on_view_change(self, sender: int, message: ViewChangeMessage) -> None:
        """A vote's stable checkpoint is an immediate gap signal for a healed
        replica; the vote itself goes to its instance's core."""
        self.adopt_checkpoint_gap_signal(message.checkpoint)
        core = self.cores.get(message.instance)
        if core is not None:
            core.on_view_change(sender, message)

    # ------------------------------------------------------------------
    # decisions: total order by (sequence, instance)
    # ------------------------------------------------------------------

    def _on_instance_decide(self, instance: int, sequence: int, view: int, digests: Tuple[bytes, ...]) -> None:
        position = sequence * self.num_instances + instance
        self.deliver_batch(position, digests, view=view, instance=instance)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """GC every instance core below the certified floor.

        The position-to-sequence arithmetic lives in
        :meth:`PbftInstanceCore.floor_of_position` so installers and the
        view-change validation can never drift apart.
        """
        for core in self.cores.values():
            core.note_stable_checkpoint(core.floor_of_position(certificate.position), certificate)

    # ------------------------------------------------------------------

    def instance_views(self) -> Dict[int, int]:
        """Current view of each instance."""
        return {instance_id: core.view for instance_id, core in self.cores.items()}

    def liveness_counters(self) -> Dict[str, int]:
        """Progress-deadline counters summed over every instance core."""
        return {
            "progress_deadline_extensions": sum(
                core.progress_deadline_extensions for core in self.cores.values()
            ),
            "progress_timeout_fires": sum(
                core.progress_timeout_fires for core in self.cores.values()
            ),
            "view_changes": sum(core.view_changes for core in self.cores.values()),
        }


__all__ = ["RccReplica"]
