"""Sequential transaction execution engine.

Committed batches from all consensus instances are executed strictly in
total order.  Execution in ResilientDB is sequential and tops out at about
340 ktxn/s on the paper's machines.  The simulator charges execution no
time (it charges no CPU at all); that ceiling caps throughput only in the
analytical model, as in Figure 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ledger.block import BlockProof
from repro.ledger.kvtable import KeyValueTable
from repro.ledger.ledger import Ledger
from repro.workload.requests import Transaction


@dataclass
class ExecutionEngine:
    """Applies committed transactions to the table and records them in the ledger.

    Parameters
    ----------
    table:
        The replica's key-value table.
    ledger:
        The replica's blockchain ledger.
    """

    table: KeyValueTable
    ledger: Ledger

    def execute_batch(
        self,
        transactions: Sequence[Transaction],
        proof: Optional[BlockProof] = None,
    ) -> None:
        """Apply a committed batch in order and append it to the ledger.

        Only writes touch the table: a read changes no state, and an Inform
        carries the transaction digest, never a read value.  Every other
        operation kind writes its value, or an empty one.  A no-op never
        gets here: its batch is empty, and the execution pipeline appends no
        block for a batch with nothing fresh to execute.
        """
        write = self.table.write
        for transaction in transactions:
            for operation in transaction.operations:
                if operation.kind != "read":
                    write(operation.key, operation.value or b"")
        self.ledger.append(tuple([transaction.digest() for transaction in transactions]), proof=proof)

    def state_digest(self) -> bytes:
        """Digest of the replica state after execution (for divergence checks)."""
        return self.table.state_digest()


__all__ = ["ExecutionEngine"]
