"""Checkpointing of the execution frontier.

:class:`CheckpointManager` is the runtime-layer piece of the recovery
subsystem shared by every protocol stack.  It maintains three things:

* a **rolling execution digest** — a hash chain folded over every executed
  order unit, so two replicas with the same digest at the same position
  provably executed identical prefixes;
* the **slot archive** — the decided content of every executed order unit,
  in position order, kept so lagging replicas can be served (the in-memory
  analogue of the on-disk ledger a production replica would read back).  It
  is the replica's one record of what it executed: the execution pipeline
  forgets an entry once it ran, and the archive grows with or without
  checkpointing;
* the **checkpoint protocol** — every ``interval`` executed units the
  replica emits a :class:`CheckpointVote`; 2f + 1 matching votes form a
  :class:`CheckpointCertificate`, the *stable checkpoint* that garbage
  collection and state transfer anchor on.

Per-slot protocol state (PBFT slots, Sync logs, vote tallies) is only ever
garbage-collected below a stable checkpoint: uncertified slots
are never dropped, because a replica that discarded content no quorum has
attested to could neither serve state transfer nor survive a view change.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.crypto.digest import digest_bytes
from repro.recovery.messages import (
    CheckpointCertificate,
    CheckpointVote,
    SlotEntry,
)

#: Rolling digest before anything executed (position 0).
GENESIS_EXECUTION_DIGEST = digest_bytes(("recovery-genesis",))


def fold_entry(rolling: bytes, entry: SlotEntry) -> bytes:
    """Advance the rolling execution digest by one executed order unit.

    The encoding is assembled inline — byte-identical to
    ``digest_bytes(("exec", rolling, entry.canonical_fields()))``, which the
    recovery tests assert — because every executed position of every replica
    of every stack passes through here.
    """
    records = entry.records
    parts = [b"t3:sexecb", rolling, b"t2:i%dt%d:" % (entry.position, len(records))]
    for record in records:
        digests = [transaction.digest() for transaction in record.transactions]
        parts.append(b"t3:i%dt%d:" % (record.instance, len(digests)))
        # Joining on b"b" after an empty head tags every digest, then the
        # slot digest, as bytes.
        parts.append(b"b".join((b"", *digests, record.slot_digest)))
    return hashlib.sha256(b"".join(parts)).digest()


class CheckpointManager:
    """Snapshots the execution frontier and certifies it every K slots.

    Parameters
    ----------
    node_id:
        The owning replica (stamped into votes).
    num_replicas / quorum:
        Cluster size and the 2f + 1 agreement quorum votes must reach.
    interval:
        Checkpoint interval K in executed order units; ``0`` disables
        checkpointing (and with it state transfer), but not the archive.
    """

    def __init__(self, node_id: int, num_replicas: int, quorum: int, interval: int) -> None:
        if interval < 0:
            raise ValueError("checkpoint interval must be non-negative")
        self.node_id = node_id
        self.num_replicas = num_replicas
        self.quorum = quorum
        self.interval = interval

        self.rolling = GENESIS_EXECUTION_DIGEST
        self.stable: Optional[CheckpointCertificate] = None
        # Entry ``p`` is the order unit executed at position ``p``.
        self.archive: List[SlotEntry] = []
        self._votes: Dict[Tuple[int, bytes], Dict[int, CheckpointVote]] = {}

        self.votes_sent = 0
        self.certificates_formed = 0

    @property
    def enabled(self) -> bool:
        """True when checkpointing (and state transfer) is active."""
        return self.interval > 0

    @property
    def frontier(self) -> int:
        """Lowest position not yet executed."""
        return len(self.archive)

    def stable_position(self) -> int:
        """Certified floor: every order unit below it is quorum-attested."""
        return self.stable.position if self.stable is not None else 0

    # ------------------------------------------------------------------
    # execution-side bookkeeping
    # ------------------------------------------------------------------

    def record_execution(self, entry: SlotEntry) -> Optional[CheckpointVote]:
        """Archive and fold one executed order unit; returns a vote at
        interval crossings.

        Entries must arrive strictly in frontier order — the rolling digest
        is a chain, so an out-of-order fold would silently diverge from every
        other replica instead of failing loudly here.  With checkpointing
        disabled the unit is archived but not hashed.
        """
        archive = self.archive
        if entry.position != len(archive):
            raise ValueError(
                f"out-of-order execution fold: expected position {len(archive)}, "
                f"got {entry.position}"
            )
        archive.append(entry)
        if not self.enabled:
            return None
        self.rolling = fold_entry(self.rolling, entry)
        frontier = len(archive)
        if frontier % self.interval == 0:
            self.votes_sent += 1
            return CheckpointVote(position=frontier, digest=self.rolling, voter=self.node_id)
        return None

    # ------------------------------------------------------------------
    # checkpoint voting
    # ------------------------------------------------------------------

    def on_vote(self, sender: int, vote: CheckpointVote) -> Optional[CheckpointCertificate]:
        """Tally one vote; returns a new stable certificate at 2f + 1 matches."""
        if not self.enabled:
            return None
        if sender != vote.voter or not 0 <= sender < self.num_replicas:
            return None
        if vote.position <= self.stable_position():
            return None
        votes = self._votes.setdefault((vote.position, vote.digest), {})
        votes[sender] = vote
        if len(votes) < self.quorum:
            return None
        certificate = CheckpointCertificate(
            position=vote.position, digest=vote.digest, signers=tuple(sorted(votes))
        )
        self.stable = certificate
        self.certificates_formed += 1
        # Tallies at or below the new floor can never stabilise a higher
        # checkpoint; drop them (this is the manager's own per-slot GC).
        self._votes = {
            statement: tally
            for statement, tally in self._votes.items()
            if statement[0] > certificate.position
        }
        return certificate

    def adopt_certificate(self, certificate: CheckpointCertificate) -> bool:
        """Adopt a certificate received from a peer (e.g. inside a response).

        Only quorum-valid certificates ahead of the current stable floor are
        accepted; returns True when the floor advanced.
        """
        if not self.enabled or not certificate.has_quorum(self.quorum, self.num_replicas):
            return False
        if certificate.position <= self.stable_position():
            return False
        self.stable = certificate
        return True

    # ------------------------------------------------------------------
    # serving state transfer
    # ------------------------------------------------------------------

    def serve(
        self, from_position: int
    ) -> Optional[Tuple[Tuple[SlotEntry, ...], CheckpointCertificate]]:
        """Archived entries from ``from_position`` up to the stable floor.

        Returns None when there is nothing *certified* to transfer: content
        above the stable checkpoint is never served, because the requester
        could not verify it against a quorum attestation.
        """
        stable = self.stable
        if stable is None or from_position >= stable.position:
            return None
        if stable.position > len(self.archive):
            return None  # adopted ahead of our own execution: not ours to serve
        return tuple(self.archive[max(0, from_position) : stable.position]), stable


__all__ = ["CheckpointManager", "GENESIS_EXECUTION_DIGEST", "fold_entry"]
