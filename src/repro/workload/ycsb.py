"""YCSB-style workload generator.

Matches the workload description in Section 6: each transaction queries a
YCSB table with half a million active records and 90 % of transactions
write/modify records.  Key selection uses the standard YCSB zipfian
distribution; value sizes default to 48 B and can be raised for the
transaction-size experiment (Figure 7(d)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.rng import DeterministicRng, zipf_cdf
from repro.workload.requests import Operation, Transaction


@dataclass(frozen=True)
class YcsbConfig:
    """Parameters of the YCSB workload."""

    record_count: int = 500_000
    write_fraction: float = 0.9
    value_size: int = 48
    operations_per_transaction: int = 1
    zipfian_theta: float = 0.99
    hot_set_size: int = 4096

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range parameters."""
        if self.record_count < 1:
            raise ValueError("record_count must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if self.value_size < 1:
            raise ValueError("value_size must be positive")
        if self.operations_per_transaction < 1:
            raise ValueError("operations_per_transaction must be positive")


class YcsbWorkload:
    """Generates YCSB transactions for a set of clients.

    The zipfian key distribution is sampled over a bounded hot set (scaled
    into the full key space) so the cumulative table stays small while
    preserving the skew that matters for contention.
    """

    def __init__(self, config: Optional[YcsbConfig] = None, rng: Optional[DeterministicRng] = None) -> None:
        self.config = config or YcsbConfig()
        self.config.validate()
        self.rng = (rng or DeterministicRng(7)).fork("ycsb")
        hot = min(self.config.hot_set_size, self.config.record_count)
        self._zipf_table = zipf_cdf(hot, self.config.zipfian_theta)
        self._hot_set_size = hot
        # Spread the hot set uniformly across the key space so different
        # hot ranks land on unrelated records, as YCSB's scrambled zipfian does.
        self._stride = max(1, self.config.record_count // hot)
        self._sequences = itertools.count()
        self.generated = 0

    def _sample_key(self) -> int:
        rng, stride = self.rng, self._stride
        hot_index = rng.zipf_index(self._hot_set_size, self.config.zipfian_theta, self._zipf_table)
        return (hot_index * stride + rng.randint(0, stride - 1)) % self.config.record_count

    def _sample_value(self) -> bytes:
        filler = self.rng.randint(0, 255)
        return bytes([filler]) * self.config.value_size

    def next_transaction(self, client_id: int) -> Transaction:
        """Generate the next transaction for ``client_id``."""
        operations: List[Operation] = []
        for _ in range(self.config.operations_per_transaction):
            key = self._sample_key()
            if self.rng.random() < self.config.write_fraction:
                operations.append(Operation.write(key, self._sample_value()))
            else:
                operations.append(Operation.read(key))
        self.generated += 1
        return Transaction(
            client_id=client_id,
            sequence=next(self._sequences),
            operations=tuple(operations),
        )

    def transactions(self, client_id: int, count: int) -> List[Transaction]:
        """Generate ``count`` transactions for one client."""
        return [self.next_transaction(client_id) for _ in range(count)]


__all__ = ["YcsbConfig", "YcsbWorkload"]
