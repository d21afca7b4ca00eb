"""PBFT protocol messages.

All messages carry an ``instance`` field so the same message types can be
reused by RCC, which runs one PBFT instance per replica.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import Message
from repro.net.record import record
from repro.recovery.messages import CheckpointCertificate
from repro.workload.requests import Transaction


def batch_digest_of(transactions: Tuple[Transaction, ...]) -> bytes:
    """Digest identifying a proposed batch: its transactions' digests, joined."""
    return b"".join([transaction.digest() for transaction in transactions])


@record
class PrePrepareMessage(Message):
    """Primary's proposal for a sequence slot (carries the batch's client
    transactions)."""

    instance: int
    view: int
    sequence: int
    transactions: Tuple[Transaction, ...]

    def batch_digest(self) -> bytes:
        """Digest identifying the proposed batch."""
        return batch_digest_of(self.transactions)


@record
class PrepareMessage(Message):
    """Backup's Prepare vote for (view, sequence, batch digest)."""

    instance: int
    view: int
    sequence: int
    batch_digest: bytes


@record
class CommitMessage(Message):
    """Commit vote for (view, sequence, batch digest)."""

    instance: int
    view: int
    sequence: int
    batch_digest: bytes


@record
class ViewChangeMessage(Message):
    """Request to move ``instance`` to ``new_view``.

    ``prepared_slots`` carries, for every slot *above the sender's stable
    checkpoint floor* that the sender knows content for, the ``(sequence,
    view, transactions)`` triple — the information the new primary needs to
    re-propose unfinished slots.  ``checkpoint`` is the sender's stable
    checkpoint certificate: everything below ``checkpoint_floor`` is quorum
    attested and recoverable via state transfer, so it does not travel with
    the vote.  That bounds the vote to O(K) slots (K = checkpoint interval)
    instead of the full since-genesis history.
    """

    instance: int
    new_view: int
    last_executed: int
    prepared_slots: Tuple[Tuple[int, int, Tuple[Transaction, ...]], ...]
    checkpoint_floor: int = 0
    checkpoint: Optional[CheckpointCertificate] = None


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
    reproposals: Tuple[Tuple[int, Tuple[Transaction, ...]], ...]
    supporters: Tuple[int, ...]


__all__ = [
    "batch_digest_of",
    "CommitMessage",
    "NewViewMessage",
    "PrePrepareMessage",
    "PrepareMessage",
    "ViewChangeMessage",
]
