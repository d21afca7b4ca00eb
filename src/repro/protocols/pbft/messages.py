"""PBFT protocol messages.

All messages carry an ``instance`` field so the same message types can be
reused by RCC, which runs one PBFT instance per replica.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import Message
from repro.net.record import record
from repro.recovery.messages import CheckpointCertificate


@record
class PrePrepareMessage(Message):
    """Primary's proposal for a sequence slot (carries the batch digests)."""

    instance: int
    view: int
    sequence: int
    transaction_digests: Tuple[bytes, ...]

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("preprepare", self.instance, self.view, self.sequence, self.transaction_digests)

    def batch_digest(self) -> bytes:
        """Digest identifying the proposed batch."""
        return b"".join(self.transaction_digests)


@record
class PrepareMessage(Message):
    """Backup's Prepare vote for (view, sequence, batch digest)."""

    instance: int
    view: int
    sequence: int
    batch_digest: bytes

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("prepare", self.instance, self.view, self.sequence, self.batch_digest)


@record
class CommitMessage(Message):
    """Commit vote for (view, sequence, batch digest)."""

    instance: int
    view: int
    sequence: int
    batch_digest: bytes

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("commit", self.instance, self.view, self.sequence, self.batch_digest)


@record
class ViewChangeMessage(Message):
    """Request to move ``instance`` to ``new_view``.

    ``prepared_slots`` carries, for every slot *above the sender's stable
    checkpoint floor* that the sender knows content for, the ``(sequence,
    view, batch digests)`` triple — the information the new primary needs to
    re-propose unfinished slots.  ``checkpoint`` is the sender's stable
    checkpoint certificate: everything below ``checkpoint_floor`` is quorum
    attested and recoverable via state transfer, so it does not travel with
    the vote.  That bounds the vote to O(K) slots (K = checkpoint interval)
    instead of the full since-genesis history.
    """

    instance: int
    new_view: int
    last_executed: int
    prepared_slots: Tuple[Tuple[int, int, Tuple[bytes, ...]], ...]
    checkpoint_floor: int = 0
    checkpoint: Optional[CheckpointCertificate] = None

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        checkpoint_fields = self.checkpoint.canonical_fields() if self.checkpoint else None
        return (
            "viewchange",
            self.instance,
            self.new_view,
            self.last_executed,
            self.prepared_slots,
            self.checkpoint_floor,
            checkpoint_fields,
        )


@record
class NewViewMessage(Message):
    """New primary's announcement of ``new_view`` with slots to re-propose.

    The re-proposals start at the certified checkpoint floor; replicas
    lagging below it recover the missing prefix through state transfer
    (driven by the certificates in ViewChange votes and checkpoint votes),
    not through re-proposals, so the floor itself does not travel here.
    """

    instance: int
    new_view: int
    reproposals: Tuple[Tuple[int, Tuple[bytes, ...]], ...]
    supporters: Tuple[int, ...]

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("newview", self.instance, self.new_view, self.reproposals, self.supporters)


__all__ = [
    "CommitMessage",
    "NewViewMessage",
    "PrePrepareMessage",
    "PrepareMessage",
    "ViewChangeMessage",
]
