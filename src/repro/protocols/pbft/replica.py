"""Standalone PBFT replica for the simulator."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import Message
from repro.net.sizes import MessageSizeModel
from repro.protocols.common import BftConfig, BftReplicaBase
from repro.protocols.pbft.core import PbftEnvironment, PbftInstanceCore
from repro.protocols.pbft.messages import (
    CommitMessage,
    NewViewMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.recovery.messages import CheckpointCertificate
from repro.sim.engine import Simulator
from repro.sim.network import Network


class PbftReplica(BftReplicaBase):
    """A PBFT replica: one consensus instance with out-of-order processing.

    The primary batches client requests and keeps ``pipeline_depth`` slots in
    flight concurrently, which is the out-of-order optimisation the paper
    credits for PBFT's high throughput in ResilientDB.
    """

    def __init__(
        self,
        node_id: int,
        config: BftConfig,
        simulator: Simulator,
        network: Network,
        size_model: Optional[MessageSizeModel] = None,
        client_node_offset: Optional[int] = None,
    ) -> None:
        super().__init__(
            node_id,
            config,
            simulator,
            network,
            size_model=size_model,
            protocol_name="pbft",
            client_node_offset=client_node_offset,
        )
        self.core = PbftInstanceCore(
            instance_id=0,
            config=config,
            environment=PbftEnvironment(
                replica_id=node_id,
                broadcast=self._broadcast_core,
                send=lambda receiver, message: self.send(receiver, message, self._size_of(message)),
                make_timer=self.timer,
                next_batch=lambda instance: self.take_batch(),
                on_decide=self._on_decide,
                now=lambda: self.simulator.now,
                pending_requests=self.pending_request_count,
            ),
        )

    # ------------------------------------------------------------------

    def _size_of(self, message: Message) -> int:
        if isinstance(message, PrePrepareMessage):
            return self.size_model.proposal_bytes()
        if isinstance(message, (ViewChangeMessage, NewViewMessage)):
            return self.size_model.control_bytes(signatures=self.config.quorum)
        return self.size_model.control_bytes()

    def _broadcast_core(self, message: Message) -> None:
        self.broadcast_protocol(message, self._size_of(message))

    def _on_decide(self, instance: int, sequence: int, view: int, digests: Tuple[bytes, ...]) -> None:
        self.deliver_batch(sequence, digests, view=view, instance=instance)

    # ------------------------------------------------------------------

    def _on_tracer_attached(self) -> None:
        """Propagate the tracer into the consensus core."""
        self.core.tracer = self.tracer

    def start(self) -> None:
        """Start the consensus core."""
        self.core.start()

    def on_request_arrival(self) -> None:
        """New client request: the primary proposes, backups arm the failure timer."""
        if self.core.is_primary():
            self.core.try_propose()
        else:
            self.core.arm_progress_timer()

    def on_protocol_message(self, sender: int, payload: object) -> None:
        """Route consensus messages to the core."""
        if isinstance(payload, ViewChangeMessage):
            # A vote's stable checkpoint is an immediate gap signal for a
            # healed replica.
            self.adopt_checkpoint_gap_signal(payload.checkpoint)
        self.core.on_message(sender, payload)

    def on_stable_checkpoint(self, certificate: CheckpointCertificate) -> None:
        """A stable checkpoint formed: GC consensus state below the floor.

        The pipeline position of standalone PBFT is the consensus sequence
        number, so the certificate's position maps one-to-one onto the
        core's checkpoint floor.
        """
        self.core.note_stable_checkpoint(certificate.position, certificate)

    # ------------------------------------------------------------------

    @property
    def view(self) -> int:
        """Current PBFT view."""
        return self.core.view

    def liveness_counters(self) -> dict:
        """Progress-deadline counters surfaced in scenario results."""
        return {
            "progress_deadline_extensions": self.core.progress_deadline_extensions,
            "progress_timeout_fires": self.core.progress_timeout_fires,
            "view_changes": self.core.view_changes,
        }


__all__ = ["PbftReplica"]
