"""The shared request pool (mempool) of a replica.

One :class:`Mempool` backs every protocol stack: it stores request payloads
(ResilientDB disseminates payloads ahead of consensus, so every replica holds
them), keeps per-instance FIFO queues of digests awaiting proposal, and
tracks which digests have been proposed or executed.

The queues are :class:`collections.deque`\\ s and every membership check goes
through a set, so the hot-path operations — admit and take-batch — are
all O(1) per digest.  The previous implementations used plain lists with
``pop(0)``/``insert(0)`` and list scans, which degrade to O(n) per request
once queues grow under load.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.workload.requests import Transaction


class AdmitResult(Enum):
    """Outcome of :meth:`Mempool.admit`."""

    NEW = "new"
    DUPLICATE = "duplicate"
    EXECUTED = "executed"


class Mempool:
    """Deque-based FIFO request pool with O(1) membership and dedup.

    Parameters
    ----------
    num_shards:
        Number of per-instance queues.  Multi-instance protocols (SpotLess,
        RCC) shard requests across instances; single-instance protocols use
        the default single shard 0.
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self._payloads: Dict[bytes, Transaction] = {}
        self._queues: Dict[int, Deque[bytes]] = {shard: deque() for shard in range(num_shards)}
        self._queued: Set[bytes] = set()
        self._proposed: Set[bytes] = set()
        self._executed: Set[bytes] = set()

    # ------------------------------------------------------------------
    # payload store
    # ------------------------------------------------------------------

    def get(self, digest: bytes) -> Optional[Transaction]:
        """Payload of ``digest``, or None when it is not locally known."""
        return self._payloads.get(digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def register_payload(self, transaction: Transaction) -> bytes:
        """Store a payload without queueing it (reconstructed no-ops)."""
        digest = transaction.digest()
        self._payloads[digest] = transaction
        return digest

    # ------------------------------------------------------------------
    # status tracking
    # ------------------------------------------------------------------

    def mark_proposed(self, digests: Iterable[bytes]) -> None:
        """Record that ``digests`` were placed into a proposal."""
        self._proposed.update(digests)

    def claim_unexecuted(self, transactions: Sequence[Transaction]) -> List[Transaction]:
        """Mark a decided batch executed; return the part not executed before.

        Whether a transaction is fresh is decided against what was executed
        before this batch.  Claimed digests never re-queue and also leave the
        queued set immediately: backups never call ``take_batch``, so without
        this an executed request would sit in ``pending_count`` forever and
        the progress-deadline machinery would see phantom outstanding work in
        a drained system.  The deque entry itself is pruned lazily by
        ``take_batch``.
        """
        executed = self._executed
        fresh = [t for t in transactions if t.digest() not in executed]
        if fresh:
            digests = [t.digest() for t in fresh]
            executed.update(digests)
            self._queued.difference_update(digests)
        return fresh

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(self, transaction: Transaction, shard: int = 0) -> AdmitResult:
        """Accept a client transaction into the pool.

        Executed transactions are ignored.  A retransmission of a known
        transaction that was proposed but is no longer queued (its proposal
        ended up on an abandoned branch) is queued again so it is eventually
        retried; other duplicates are no-ops.
        """
        digest = transaction.digest()
        if digest in self._executed:
            return AdmitResult.EXECUTED
        if digest in self._payloads:
            if digest in self._proposed and digest not in self._queued:
                self._proposed.discard(digest)
                self._enqueue(shard, digest)
            return AdmitResult.DUPLICATE
        self._payloads[digest] = transaction
        self._enqueue(shard, digest)
        return AdmitResult.NEW

    def _enqueue(self, shard: int, digest: bytes) -> None:
        self._queues[shard].append(digest)
        self._queued.add(digest)

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    def take_batch(
        self, batch_size: int, shard: int = 0, allow_empty: bool = False
    ) -> Optional[Tuple[bytes, ...]]:
        """Pop up to ``batch_size`` digests from ``shard`` for a proposal.

        Digests that were executed or proposed while queued are skipped
        lazily.  Returns None when nothing is available, unless
        ``allow_empty`` asks for an empty batch instead.
        """
        queue = self._queues[shard]
        batch = []
        while queue and len(batch) < batch_size:
            digest = queue.popleft()
            self._queued.discard(digest)
            if digest in self._executed or digest in self._proposed:
                continue
            batch.append(digest)
        if not batch and not allow_empty:
            return None
        self._proposed.update(batch)
        return tuple(batch)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def has_pending(self, shard: int = 0) -> bool:
        """True while ``shard``'s queue is non-empty."""
        return bool(self._queues[shard])

    def has_unproposed(self, shard: int) -> bool:
        """True while ``shard`` queues a request no proposal has covered yet.

        Executed and proposed digests leave the head of the queue as they
        are found, exactly as ``take_batch`` would skip them, so a replica
        that never takes from ``shard`` pays for each digest once.
        """
        queue = self._queues[shard]
        while queue:
            digest = queue[0]
            if digest in self._queued and digest not in self._proposed:
                return True
            queue.popleft()
            self._queued.discard(digest)
        return False

    def pending_count(self, shard: Optional[int] = None) -> int:
        """Queued digests in ``shard``, or across all shards when omitted."""
        if shard is not None:
            return len(self._queues[shard])
        return len(self._queued)


__all__ = ["AdmitResult", "Mempool"]
