"""Sequential transaction execution engine.

Committed batches from all consensus instances are executed strictly in
total order.  Execution in ResilientDB is sequential and tops out at about
340 ktxn/s on the paper's machines.  The simulator charges execution no
time (it charges no CPU at all); that ceiling caps throughput only in the
analytical model, as in Figure 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from repro.ledger.block import BlockProof
from repro.ledger.kvtable import KeyValueTable
from repro.ledger.ledger import Ledger
from repro.workload.requests import Operation, Transaction


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of executing one transaction."""

    transaction_digest: bytes
    client_id: int
    read_values: Tuple[bytes, ...] = ()
    success: bool = True


@dataclass
class ExecutionEngine:
    """Applies committed transactions to the table and records them in the ledger.

    Parameters
    ----------
    table:
        The replica's key-value table.
    ledger:
        The replica's blockchain ledger.
    max_rate_txn_per_sec:
        Sequential execution ceiling (340 ktxn/s in the paper).  Exposed so
        the simulator can charge execution time; the engine itself just
        counts the work.
    """

    table: KeyValueTable
    ledger: Ledger
    max_rate_txn_per_sec: float = 340_000.0
    executed_transactions: int = 0

    def execute_transaction(self, transaction: Transaction) -> ExecutionResult:
        """Execute one transaction against the table."""
        reads: List[bytes] = []
        for operation in transaction.operations:
            if operation.kind == "read":
                reads.append(self.table.read(operation.key))
            else:
                self.table.write(operation.key, operation.value or b"")
        self.executed_transactions += 1
        return ExecutionResult(
            transaction_digest=transaction.digest(),
            client_id=transaction.client_id,
            read_values=tuple(reads),
        )

    def execute_batch(
        self,
        transactions: Iterable[Transaction],
        proof: Optional[BlockProof] = None,
    ) -> List[ExecutionResult]:
        """Execute a committed batch in order and append it to the ledger."""
        transactions = list(transactions)
        results = [self.execute_transaction(txn) for txn in transactions]
        self.ledger.append((txn.digest() for txn in transactions), proof=proof)
        return results

    def state_digest(self) -> bytes:
        """Digest of the replica state after execution (for divergence checks)."""
        return self.table.state_digest()


@lru_cache(maxsize=65536)
def make_noop_transaction(instance: int, view: int) -> Transaction:
    """Build the no-op transaction a primary proposes when it has no requests.

    Section 5: a primary with no pending client transactions proposes a no-op
    so that execution of the other instances' proposals in the same view is
    not blocked.

    The transaction is fully determined by ``(instance, view)`` and frozen,
    so interning it shares one object (and one memoized digest) across every
    replica that proposes, resolves or re-executes the same no-op.
    """
    return Transaction(client_id=-1, sequence=view, operations=(Operation.noop(instance),))


__all__ = ["ExecutionEngine", "ExecutionResult", "make_noop_transaction"]
