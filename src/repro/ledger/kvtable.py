"""In-memory key-value table backing the YCSB workload.

Each replica is initialised with an identical copy of the table (half a
million active records in the paper's setup).  To keep memory bounded the
table stores records lazily: a read of an untouched key returns the
deterministic initial value for that key, and only written keys occupy
memory.  This preserves the externally observable behaviour of a fully
pre-populated table.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional


class KeyValueTable:
    """A YCSB-style table of ``record_count`` records.

    Keys are integers in ``[0, record_count)``; values are byte strings of
    ``value_size`` bytes.  Unwritten records hold a deterministic initial
    value derived from the key, identical across replicas.
    """

    def __init__(self, record_count: int = 500_000, value_size: int = 48) -> None:
        if record_count < 1:
            raise ValueError("record_count must be positive")
        if value_size < 1:
            raise ValueError("value_size must be positive")
        self.record_count = record_count
        self.value_size = value_size
        self._written: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def _initial_value(self, key: int) -> bytes:
        seed = hashlib.sha256(f"ycsb-record-{key}".encode("ascii")).digest()
        repeats = (self.value_size + len(seed) - 1) // len(seed)
        return (seed * repeats)[: self.value_size]

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.record_count:
            raise KeyError(f"key {key} outside table of {self.record_count} records")

    def read(self, key: int) -> bytes:
        """Read the value of ``key``."""
        self._check_key(key)
        self.reads += 1
        value = self._written.get(key)
        if value is None:
            return self._initial_value(key)
        return value

    def write(self, key: int, value: bytes) -> None:
        """Overwrite the value of ``key``."""
        self._check_key(key)
        if len(value) != self.value_size:
            value = (value + b"\x00" * self.value_size)[: self.value_size]
        self.writes += 1
        self._written[key] = value

    def update(self, key: int, value: bytes) -> bytes:
        """Read-modify-write: returns the previous value and stores the new one."""
        previous = self.read(key)
        self.write(key, value)
        return previous

    def state_digest(self) -> bytes:
        """Digest of all modified records, used to compare replica states."""
        hasher = hashlib.sha256()
        for key in sorted(self._written):
            hasher.update(key.to_bytes(8, "big"))
            hasher.update(self._written[key])
        return hasher.digest()


__all__ = ["KeyValueTable"]
