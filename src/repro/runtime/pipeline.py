"""In-order execution of decided batches, shared by every protocol stack.

The pipeline owns the map of decided positions, the in-order execution
frontier, deterministic no-op reconstruction, and client Informs.  Protocols
only differ in *how* they decide a position:

* baselines call :meth:`ExecutionPipeline.deliver` with a position in their
  global order and the pipeline executes the contiguous decided prefix;
* SpotLess computes its own (view, instance) frontier across instances and
  feeds each ready record straight to :meth:`ExecutionPipeline.execute`.

Both paths share the execute step: already-executed transactions are
filtered out, the batch is applied to the ledger under a
:class:`~repro.ledger.block.BlockProof`, and the owning client of every
fresh non-no-op transaction is informed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.ledger.block import BlockProof
from repro.ledger.execution import ExecutionEngine
from repro.runtime.mempool import Mempool
from repro.workload.requests import Transaction

ResolveNoop = Callable[[bytes, int], Optional[Transaction]]
Inform = Callable[[Transaction], None]
# Called after each position executes: (position, digests, view, instance).
# The recovery layer folds every executed position into its rolling
# checkpoint digest through this hook.
OnExecuted = Callable[[int, Tuple[bytes, ...], int, int], None]


class ExecutionPipeline:
    """Executes decided batches strictly in position order.

    Parameters
    ----------
    mempool:
        The replica's request pool; payloads are looked up here and executed
        digests are recorded here.
    engine:
        The ledger execution engine the batches are applied to.
    protocol_name:
        Stamped into every block proof.
    quorum:
        Agreement quorum recorded in block proofs.
    inform:
        Callback informing the owning client of an executed transaction.
    resolve_noop:
        Hook reconstructing a protocol's deterministic no-op for a missing
        digest; a position whose payloads can neither be found nor
        reconstructed stalls the execution frontier until they arrive.
    """

    def __init__(
        self,
        mempool: Mempool,
        engine: ExecutionEngine,
        protocol_name: str,
        quorum: int,
        inform: Optional[Inform] = None,
        resolve_noop: Optional[ResolveNoop] = None,
    ) -> None:
        self.mempool = mempool
        self.engine = engine
        self.protocol_name = protocol_name
        self.quorum = quorum
        self._proof_quorum = tuple(f"replica:{r}" for r in range(quorum))
        # The last proof made per instance.  A proof is fully determined by
        # (view, instance) for one pipeline, so consecutive blocks an
        # instance commits in one view share one object and its memoized
        # encoding: PBFT and RCC stay in a view between view changes.  Where
        # the view moves with every block (SpotLess, HotStuff, Narwhal-HS) an
        # older proof is never asked for again, so none is kept.
        self._proof_cache: Dict[int, BlockProof] = {}
        self._inform = inform
        self._resolve_noop = resolve_noop
        self.on_executed: Optional[OnExecuted] = None

        self._decided: Dict[int, Tuple[bytes, ...]] = {}
        self._decision_meta: Dict[int, Tuple[int, int]] = {}
        self._next_execution_position = 0
        self.executed_transactions = 0
        self.decided_batches = 0

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def deliver(
        self,
        position: int,
        transaction_digests: Tuple[bytes, ...],
        view: int = 0,
        instance: int = 0,
    ) -> None:
        """Record that the batch at ``position`` in the global order is decided."""
        if position in self._decided:
            return
        self._decided[position] = tuple(transaction_digests)
        self._decision_meta[position] = (view, instance)
        self.decided_batches += 1
        self.advance()

    @property
    def next_execution_position(self) -> int:
        """Lowest position not yet executed (the execution frontier)."""
        return self._next_execution_position

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def advance(self) -> None:
        """Execute the contiguous decided prefix; gaps stall the frontier."""
        while self._next_execution_position in self._decided:
            position = self._next_execution_position
            digests = self._decided[position]
            transactions: List[Transaction] = []
            for digest in digests:
                transaction = self.mempool.get(digest)
                if transaction is None:
                    transaction = (
                        self._resolve_noop(digest, position) if self._resolve_noop else None
                    )
                    if transaction is None:
                        return
                    self.mempool.register_payload(transaction)
                transactions.append(transaction)
            view, instance = self._decision_meta.get(position, (0, 0))
            self.execute(transactions, view=view, instance=instance)
            self._next_execution_position += 1
            if self.on_executed is not None:
                self.on_executed(position, digests, view, instance)

    def execute(self, transactions: List[Transaction], view: int = 0, instance: int = 0) -> None:
        """Apply a decided batch to the ledger and inform clients.

        Transactions executed earlier (under another position) are skipped;
        the fresh remainder is executed under one block proof.
        """
        fresh = self.mempool.claim_unexecuted(transactions)
        if not fresh:
            return
        proof = self._proof_cache.get(instance)
        if proof is None or proof.view != view:
            proof = BlockProof(
                protocol=self.protocol_name,
                view=view,
                instance=instance,
                quorum=self._proof_quorum,
            )
            self._proof_cache[instance] = proof
        self.engine.execute_batch(fresh, proof=proof)
        inform = self._inform
        for transaction in fresh:
            if transaction.is_noop():
                continue
            self.executed_transactions += 1
            if inform is not None:
                inform(transaction)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def compact_below(self, position: int) -> int:
        """Drop decided-slot state below ``position``; returns slots dropped.

        Only the executed prefix may be compacted, and callers only compact
        below a stable checkpoint: refusing to GC unexecuted (and therefore
        uncertified) slots here is the last line of defence against a bug
        that would discard content the cluster still needs.
        """
        if position > self._next_execution_position:
            raise ValueError(
                f"refusing to GC slots up to {position}: execution frontier is at "
                f"{self._next_execution_position} and uncertified slots must be kept"
            )
        stale = [decided for decided in self._decided if decided < position]
        for decided in stale:
            del self._decided[decided]
            self._decision_meta.pop(decided, None)
        return len(stale)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def committed_map(self) -> Dict[Tuple[int, int], bytes]:
        """Mapping of decided position to a digest of the decided batch."""
        return {
            (position, 0): b"".join(digests) if digests else b""
            for position, digests in self._decided.items()
        }


__all__ = ["ExecutionPipeline"]
