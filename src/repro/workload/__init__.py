"""Workload generation: YCSB-style transactions, clients and arrival processes.

The paper drives every experiment with the Yahoo Cloud Serving Benchmark as
packaged by Blockbench: a table of half a million records where 90 % of the
transactions write/modify records.  This package provides the same workload
shape, plus the client behaviour of Section 5 (submit to one replica, wait
for f + 1 matching Informs, fail over with a doubled timeout).
"""

from repro.workload.requests import Operation, Transaction
from repro.workload.ycsb import YcsbWorkload
from repro.workload.arrival import (
    LoadPhase,
    LoadProfile,
    PHASE_SHAPES,
    overload_profile,
)

__all__ = [
    "LoadPhase",
    "LoadProfile",
    "Operation",
    "PHASE_SHAPES",
    "Transaction",
    "YcsbWorkload",
    "overload_profile",
]
