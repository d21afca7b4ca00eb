"""Wire vocabulary of the checkpoint / state-transfer subsystem.

These messages are protocol-agnostic: every replica stack (SpotLess, PBFT,
RCC, HotStuff, Narwhal-HS) exchanges them through the shared
:mod:`repro.runtime` layer, below the consensus logic.

* ``CheckpointVote(position, digest)`` — broadcast by a replica whenever its
  execution frontier crosses a multiple of the checkpoint interval K; the
  digest is the rolling execution digest (a hash chain over every executed
  order unit), so matching votes attest to identical executed prefixes.
* ``CheckpointCertificate`` — 2f + 1 matching votes: the *stable checkpoint*.
  It is simultaneously the garbage-collection floor for per-slot protocol
  state and the proof a state-transfer response is replayed against.
* ``StateRequest(from_position)`` — a replica that learns (via a stable
  certificate) that the cluster executed past its own frontier asks a
  certificate signer for the decided content it is missing.
* ``StateResponse`` — the certified slot content (:class:`SlotEntry` per
  order unit, each record carrying its client transactions) up to the
  responder's stable checkpoint.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.certificates import is_quorum
from repro.net.message import Message
from repro.net.record import record
from repro.workload.requests import Transaction


@record(slots=True)
class SlotRecord:
    """One decided batch inside an order unit.

    ``transactions`` are the client transactions the decided proposal
    carried (none for a no-op), which is what execution runs;
    ``view``/``instance`` reproduce the block-proof metadata of the original
    execution; ``slot_digest`` identifies the decided proposal (SpotLess's
    proposal digest — baselines leave it empty and identify slots by their
    batch content alone).
    """

    view: int
    instance: int
    transactions: Tuple[Transaction, ...]
    slot_digest: bytes = b""

    def canonical_fields(self) -> tuple:
        """Canonical encoding folded into the rolling execution digest.

        Only agreement-fixed content is folded: the batch content, as its
        transactions' digests, and slot identity.  The ``view`` is
        deliberately excluded — a PBFT slot can legitimately be decided at
        view v on one replica and re-affirmed at v + 1 on a replica that
        lagged through the view change, and folding it would make the
        rolling digests of honestly identical prefixes diverge, wedging
        checkpoint quorums forever.
        """
        return (
            self.instance,
            tuple(transaction.digest() for transaction in self.transactions),
            self.slot_digest,
        )


@record(slots=True)
class SlotEntry:
    """The decided content of one order unit of the execution frontier.

    For the baseline protocols an order unit is one global-order position and
    carries exactly one record; for SpotLess it is one view and carries the
    records committed across all instances in that view (possibly none).
    """

    position: int
    records: Tuple[SlotRecord, ...]

    def canonical_fields(self) -> tuple:
        """Canonical encoding folded into the rolling execution digest."""
        return (self.position, tuple(record.canonical_fields() for record in self.records))


@record
class CheckpointVote(Message):
    """One replica's attestation of its executed prefix at ``position``."""

    position: int
    digest: bytes
    voter: int


@record
class CheckpointCertificate(Message):
    """A stable checkpoint: 2f + 1 matching checkpoint votes."""

    position: int
    digest: bytes
    signers: Tuple[int, ...]

    def has_quorum(self, quorum: int, num_replicas: int) -> bool:
        """True when the certificate carries ``quorum`` distinct in-range
        signers: the rule of every quorum certificate."""
        return is_quorum(self.signers, quorum, num_replicas)


@record
class StateRequest(Message):
    """Pull request for the decided content from ``from_position`` upward."""

    from_position: int


@record
class StateResponse(Message):
    """Certified slot content answering a :class:`StateRequest`.

    ``entries`` cover ``from_position`` up to (excluding) the certificate's
    position; their records carry the decided transactions, so the
    requester executes them as they are, without further round trips.
    """

    from_position: int
    entries: Tuple[SlotEntry, ...]
    certificate: Optional[CheckpointCertificate]


__all__ = [
    "CheckpointCertificate",
    "CheckpointVote",
    "SlotEntry",
    "SlotRecord",
    "StateRequest",
    "StateResponse",
]
