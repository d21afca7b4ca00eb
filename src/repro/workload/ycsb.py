"""YCSB-style workload generator.

Matches the workload description in Section 6: each transaction queries a
YCSB table with half a million active records and 90 % of transactions
write/modify records.  Key selection uses the standard YCSB zipfian
distribution; values are ``TRANSACTION_BYTES`` long, the transaction size
the Section 6.1 wire sizes assume.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.net.sizes import TRANSACTION_BYTES
from repro.sim.rng import DeterministicRng, zipf_cdf
from repro.workload.requests import Operation, Transaction

# The Section 6 workload, which every experiment runs.
RECORD_COUNT = 500_000
WRITE_FRACTION = 0.9
ZIPF_THETA = 0.99
# Ranks the zipfian distribution is sampled over (see YcsbWorkload).
HOT_SET_SIZE = 4096
VALUE_BYTES = TRANSACTION_BYTES


class YcsbWorkload:
    """Generates YCSB transactions for a set of clients.

    Each transaction carries one operation.  The zipfian key distribution is
    sampled over a bounded hot set (scaled into the full key space) so the
    cumulative table stays small while preserving the skew that matters for
    contention.
    """

    def __init__(self, rng: Optional[DeterministicRng] = None) -> None:
        self.rng = (rng or DeterministicRng(7)).fork("ycsb")
        self._zipf_table = zipf_cdf(HOT_SET_SIZE, ZIPF_THETA)
        # Spread the hot set uniformly across the key space so different
        # hot ranks land on unrelated records, as YCSB's scrambled zipfian does.
        self._stride = RECORD_COUNT // HOT_SET_SIZE
        self._sequences = itertools.count()

    def _sample_key(self) -> int:
        rng, stride = self.rng, self._stride
        hot_index = rng.zipf_index(HOT_SET_SIZE, ZIPF_THETA, self._zipf_table)
        return (hot_index * stride + rng.randint(0, stride - 1)) % RECORD_COUNT

    def next_transaction(self, client_id: int) -> Transaction:
        """Generate the next transaction for ``client_id``."""
        rng = self.rng
        key = self._sample_key()
        if rng.random() < WRITE_FRACTION:
            operation = Operation.write(key, bytes([rng.randint(0, 255)]) * VALUE_BYTES)
        else:
            operation = Operation.read(key)
        return Transaction(
            client_id=client_id, sequence=next(self._sequences), operations=(operation,)
        )

    def transactions(self, client_id: int, count: int) -> List[Transaction]:
        """Generate ``count`` transactions for one client."""
        return [self.next_transaction(client_id) for _ in range(count)]


__all__ = [
    "HOT_SET_SIZE",
    "RECORD_COUNT",
    "VALUE_BYTES",
    "WRITE_FRACTION",
    "YcsbWorkload",
    "ZIPF_THETA",
]
