"""Ledger, key-value store and transaction execution substrate.

Mirrors the ResilientDB execution back-end used by the paper: every replica
holds an identical YCSB table, committed batches are appended to an
immutable hash-chained ledger together with their commit certificates, and a
sequential execution engine applies transactions in total order (at up to
340 ktxn/s on the paper's machines, a ceiling only the analytical model
charges).
"""

from repro.ledger.kvtable import KeyValueTable
from repro.ledger.block import Block, BlockProof
from repro.ledger.ledger import Ledger
from repro.ledger.execution import ExecutionEngine

__all__ = [
    "Block",
    "BlockProof",
    "ExecutionEngine",
    "KeyValueTable",
    "Ledger",
]
