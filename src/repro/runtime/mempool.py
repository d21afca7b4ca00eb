"""The shared request pool (mempool) of a replica.

One :class:`Mempool` backs every protocol stack: it keeps per-instance FIFO
queues of client requests awaiting proposal, and tracks which requests have
been executed, or received or proposed and not yet executed.  A request's
transaction is held here only while it is queued: a proposal carries the
transactions it proposes, so from there on the proposal, and after
execution the decided entry, holds it.

The queues are :class:`collections.deque`\\ s and every membership check goes
through a set or dict, so the hot-path operations — admit and take-batch —
are all O(1) per request.  The previous implementations used plain lists
with ``pop(0)``/``insert(0)`` and list scans, which degrade to O(n) per
request once queues grow under load.
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


# Enum members bound once: a ``Class.MEMBER`` load in a function costs about
# 100 ns on CPython 3.10/3.11, and no call count shows it.
_NEW = AdmitResult.NEW
_DUPLICATE = AdmitResult.DUPLICATE
_EXECUTED = AdmitResult.EXECUTED


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
        self._queues: Dict[int, Deque[bytes]] = {shard: deque() for shard in range(num_shards)}
        # The queued requests' transactions, by digest; a deque entry whose
        # digest is not here was taken or executed since it was queued.
        self._queued: Dict[bytes, Transaction] = {}
        # Requests a client sent here that are not executed yet.  A proposal
        # can carry a request before the client's copy arrives; only a copy
        # that arrives again is a retransmission.
        self._received: Set[bytes] = set()
        self._proposed: Set[bytes] = set()
        self._executed: Set[bytes] = set()

    # ------------------------------------------------------------------
    # status tracking
    # ------------------------------------------------------------------

    def mark_proposed(self, transactions: Iterable[Transaction]) -> None:
        """Record that ``transactions`` were placed into a proposal.

        An executed one is skipped: a repeated proposal of executed content
        (RCC re-marks every content it receives) must not bring it back into
        the proposed set, which holds unexecuted digests only.
        """
        self._proposed.update({t.digest() for t in transactions}.difference(self._executed))

    def claim_unexecuted(self, transactions: Sequence[Transaction]) -> List[Transaction]:
        """Mark a decided batch executed; return the part not executed before.

        Whether a transaction is fresh is decided against what was executed
        before this batch.  Claimed requests never re-queue and also leave
        the queued map immediately: backups never call ``take_batch``, so
        without this an executed request would keep ``has_unproposed`` true
        forever, and RCC's owed work, so the progress deadline, would see
        phantom outstanding work in a drained system.  The deque entry itself
        is pruned lazily by ``take_batch``.  They leave the proposed set too:
        every read of it tests the executed set first, or requires a queued
        digest.
        """
        executed = self._executed
        fresh = [t for t in transactions if t.digest() not in executed]
        if fresh:
            digests = [t.digest() for t in fresh]
            executed.update(digests)
            queued = self._queued
            for digest in digests:
                queued.pop(digest, None)
            self._received.difference_update(digests)
            self._proposed.difference_update(digests)
        return fresh

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(self, transaction: Transaction, shard: int = 0) -> AdmitResult:
        """Accept a client transaction into the pool.

        Executed transactions are ignored.  A retransmission of a request
        that was proposed but is no longer queued (its proposal ended up on
        an abandoned branch) is queued again so it is eventually retried;
        other duplicates are no-ops.  A request's first copy is queued even
        if a proposal already carries it, and ``take_batch`` skips it while
        it stays proposed.
        """
        digest = transaction.digest()
        if digest in self._executed:
            return _EXECUTED
        if digest in self._received:
            if digest in self._proposed and digest not in self._queued:
                self._proposed.discard(digest)
                self._enqueue(shard, digest, transaction)
            return _DUPLICATE
        self._received.add(digest)
        self._enqueue(shard, digest, transaction)
        return _NEW

    def requeue(self, transactions: Iterable[Transaction], shard: int) -> None:
        """Queue again the client requests of a proposal that was abandoned.

        Each request still proposed (so unexecuted) leaves the proposed set
        and goes back into ``shard`` with the transaction the proposal
        carried, at the tail unless it is still queued.
        """
        proposed = self._proposed
        queued = self._queued
        for transaction in transactions:
            digest = transaction.digest()
            if digest not in proposed:
                continue
            proposed.discard(digest)
            if digest not in queued:
                self._enqueue(shard, digest, transaction)

    def _enqueue(self, shard: int, digest: bytes, transaction: Transaction) -> None:
        self._queues[shard].append(digest)
        self._queued[digest] = transaction

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    def take_batch(
        self, batch_size: int, shard: int = 0, allow_empty: bool = False
    ) -> Optional[Tuple[Transaction, ...]]:
        """Pop up to ``batch_size`` queued transactions from ``shard`` for a
        proposal, which carries them from here on.

        Requests that were executed or proposed while queued are skipped
        lazily.  Returns None when nothing is available, unless
        ``allow_empty`` asks for an empty batch instead.
        """
        queue = self._queues[shard]
        queued = self._queued
        proposed = self._proposed
        batch = []
        while queue and len(batch) < batch_size:
            digest = queue.popleft()
            transaction = queued.pop(digest, None)
            if transaction is None or digest in proposed:
                continue
            proposed.add(digest)
            batch.append(transaction)
        if not batch and not allow_empty:
            return None
        return tuple(batch)

    def take_queued(self, digests: Iterable[bytes]) -> Tuple[Transaction, ...]:
        """Take the named queued requests out of the pool, as ``take_batch``
        takes the oldest ones; each must be queued."""
        queued = self._queued
        batch = tuple(queued.pop(digest) for digest in digests)
        self._proposed.update(t.digest() for t in batch)
        return batch

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def has_unproposed(self, shard: int) -> bool:
        """True while ``shard`` queues a request no proposal has covered yet.

        Executed and proposed requests leave the head of the queue as they
        are found, exactly as ``take_batch`` would skip them, so a replica
        that never takes from ``shard`` pays for each request once.
        """
        queue = self._queues[shard]
        queued = self._queued
        while queue:
            digest = queue[0]
            if digest in queued and digest not in self._proposed:
                return True
            queue.popleft()
            queued.pop(digest, None)
        return False

    def pending_count(self, shard: Optional[int] = None) -> int:
        """Queued requests in ``shard``, or across all shards when omitted."""
        if shard is not None:
            return len(self._queues[shard])
        return len(self._queued)


__all__ = ["AdmitResult", "Mempool"]
