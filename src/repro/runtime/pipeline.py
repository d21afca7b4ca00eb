"""In-order execution of the global order, shared by every protocol stack.

The unit of the global order is a :class:`~repro.recovery.SlotEntry`: a
position plus the :class:`~repro.recovery.SlotRecord` batches decided at it.
A baseline decides one batch per position
(:meth:`~repro.runtime.replica.ReplicaRuntime.deliver_batch` builds the
one-record entry); SpotLess decides one view per position, with the records
committed across its instances (possibly none).  Either hands the entry to
:meth:`ExecutionPipeline.deliver_entry`.  Protocols differ
only in *how* a position gets decided; from there on there is one path:

* execute: each record's client transactions — carried by the decided
  proposal, so nothing is looked up and only an undecided position stalls
  the frontier — run under its own (view, instance) block proof, skipping
  those an earlier position already executed, and the owning client of
  each is informed; a no-op is an empty record that only fills its slot of
  the order, so it writes nothing and appends no block;
* fold: the same entry goes to the recovery layer, whose checkpoint archive
  is the replica's one record of executed entries.

The pipeline itself holds only decided positions that have not executed yet:
an entry leaves it the moment it runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ledger.block import BlockProof
from repro.ledger.execution import ExecutionEngine
from repro.recovery.messages import SlotEntry, SlotRecord
from repro.runtime.mempool import Mempool
from repro.workload.requests import Transaction

Inform = Callable[[Transaction], None]
# Called with each entry once it executed, in position order.
Fold = Callable[[SlotEntry], None]


class ExecutionPipeline:
    """Executes decided entries strictly in position order.

    Parameters
    ----------
    mempool:
        The replica's request pool; executed digests are recorded here.
    engine:
        The ledger execution engine the batches are applied to.
    protocol_name:
        Stamped into every block proof.
    quorum:
        Agreement quorum recorded in block proofs.
    inform:
        Callback informing the owning client of an executed transaction.
    fold:
        Callback receiving each executed entry (the checkpoint archive and
        fold).
    """

    def __init__(
        self,
        mempool: Mempool,
        engine: ExecutionEngine,
        protocol_name: str,
        quorum: int,
        inform: Optional[Inform] = None,
        fold: Optional[Fold] = None,
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
        self._fold = fold

        # Decided entries not yet executed, by position.
        self.pending: Dict[int, SlotEntry] = {}
        # Lowest position not yet executed (the execution frontier); only
        # ``advance`` moves it.
        self.next_execution_position = 0
        self.executed_transactions = 0

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def deliver(self, position: int, digests: Tuple[bytes, ...]) -> None:
        """Decide the queued requests ``digests`` as one batch at ``position``.

        For a caller that admitted the requests to the pool and names them
        by digest (the pipeline probe of ``perfbench/probes.py``); a replica
        delivers entries whose records carry their transactions.
        """
        record = SlotRecord(view=0, instance=0, transactions=self.mempool.take_queued(digests))
        self.deliver_entry(SlotEntry(position=position, records=(record,)))

    def deliver_entry(self, entry: SlotEntry) -> None:
        """Record that ``entry`` is decided; a position is decided once."""
        if self.is_decided(entry.position):
            return
        self.pending[entry.position] = entry
        self.advance()

    def is_decided(self, position: int) -> bool:
        """True once ``position`` is decided: executed, or pending."""
        return position < self.next_execution_position or position in self.pending

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def advance(self) -> None:
        """Execute the contiguous decided prefix; gaps stall the frontier."""
        pending = self.pending
        while self.next_execution_position in pending:
            position = self.next_execution_position
            entry = pending[position]
            for record in entry.records:
                self._execute(record.transactions, view=record.view, instance=record.instance)
            del pending[position]
            self.next_execution_position = position + 1
            if self._fold is not None:
                self._fold(entry)

    def _execute(self, transactions: Tuple[Transaction, ...], view: int, instance: int) -> None:
        """Apply a decided batch to the ledger and inform clients.

        Transactions executed earlier (under another position) are skipped;
        the fresh ones are executed under one block proof, and a batch with
        none (a no-op's empty one among them) appends no block.
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
        self.executed_transactions += len(fresh)
        inform = self._inform
        if inform is not None:
            for transaction in fresh:
                inform(transaction)


__all__ = ["ExecutionPipeline"]
