"""RCC replica: concurrent PBFT instances under one global order."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ledger.execution import make_noop_transaction
from repro.net.message import Message
from repro.net.sizes import MessageSizeModel
from repro.protocols.common import BftConfig
from repro.protocols.pbft.core import PbftEnvironment, PbftInstanceCore
from repro.protocols.pbft.messages import (
    NewViewMessage,
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
    * decisions are ordered globally by ``(sequence, instance)``; idle
      instances propose no-ops so execution of a sequence round never blocks
      on an instance without load;
    * a faulty primary is detected per instance by PBFT's own progress
      deadline and replaced by that instance's PBFT view change.  RCC's
      complaints and exponential back-off are **not implemented**: no
      instance is ever skipped; a round waits out a stalled one's view change.
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

        self.cores: Dict[int, PbftInstanceCore] = {}
        for instance_id in range(self.num_instances):
            self.cores[instance_id] = PbftInstanceCore(
                instance_id=instance_id,
                config=config,
                environment=PbftEnvironment(
                    replica_id=node_id,
                    broadcast=self._broadcast_core,
                    send=lambda receiver, message: self.send(receiver, message, self._size_of(message)),
                    make_timer=self.timer,
                    next_batch=self._next_instance_batch,
                    on_decide=self._on_instance_decide,
                    now=lambda: self.simulator.now,
                    # Replica-wide on purpose: the global order interleaves
                    # every instance, so queued work anywhere obliges each
                    # instance to keep its rounds moving.
                    pending_requests=self.pending_request_count,
                ),
            )

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------

    def _assign_shard(self, transaction: Transaction) -> int:
        """Route the request to the instance responsible for its digest."""
        return transaction.instance_assignment(self.num_instances)

    def on_request_arrival(self) -> None:
        """Primaries propose; backups arm the per-instance failure timer."""
        for core in self.cores.values():
            if core.is_primary():
                core.try_propose()
            else:
                core.arm_progress_timer()

    def _next_instance_batch(self, instance_id: int) -> Optional[Tuple[bytes, ...]]:
        core = self.cores[instance_id]
        return self.take_batch_or_noop(
            instance_id, lambda: make_noop_transaction(instance_id, core.next_sequence)
        )

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

    def _size_of(self, message: Message) -> int:
        cls = message.__class__
        if cls is PrePrepareMessage:
            return self.size_model.proposal_bytes()
        if cls is ViewChangeMessage or cls is NewViewMessage:
            return self.size_model.control_bytes(signatures=self.config.quorum)
        return self.size_model.control_bytes()

    def _broadcast_core(self, message: Message) -> None:
        self.broadcast_protocol(message, self._size_of(message))

    def _on_tracer_attached(self) -> None:
        """Propagate the tracer into every instance core."""
        for core in self.cores.values():
            core.tracer = self.tracer

    def start(self) -> None:
        """Start every instance core."""
        for core in self.cores.values():
            core.start()

    def on_protocol_message(self, sender: int, payload: object) -> None:
        """Route consensus messages by instance."""
        if payload.__class__ is ViewChangeMessage:
            # A vote's stable checkpoint is an immediate gap signal for a
            # healed replica.
            self.adopt_checkpoint_gap_signal(payload.checkpoint)
        instance_id = getattr(payload, "instance", None)
        core = self.cores.get(instance_id)
        if core is not None:
            core.on_message(sender, payload)

    # ------------------------------------------------------------------
    # decisions: total order by (sequence, instance)
    # ------------------------------------------------------------------

    def _on_instance_decide(self, instance: int, sequence: int, view: int, digests: Tuple[bytes, ...]) -> None:
        # The core proposes again as this returns: idle instances keep moving.
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
