"""In-memory key-value table backing the YCSB workload.

Each replica starts from an identical copy of the Section 6 table
(``RECORD_COUNT`` records of ``VALUE_BYTES`` bytes).  Execution only writes
it, so the table stores the written records alone: an unwritten record is
the same initial value on every replica, and the state digest covers what
execution changed.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.workload.ycsb import RECORD_COUNT, VALUE_BYTES


class KeyValueTable:
    """The YCSB table: keys are integers in ``[0, RECORD_COUNT)``, values
    byte strings of ``VALUE_BYTES`` bytes."""

    def __init__(self) -> None:
        self._written: Dict[int, bytes] = {}

    def write(self, key: int, value: bytes) -> None:
        """Overwrite the value of ``key``.

        The key arrives inside a client transaction, so it is range-checked.
        """
        if not 0 <= key < RECORD_COUNT:
            raise KeyError(f"key {key} outside table of {RECORD_COUNT} records")
        if len(value) != VALUE_BYTES:
            value = (value + b"\x00" * VALUE_BYTES)[:VALUE_BYTES]
        self._written[key] = value

    def state_digest(self) -> bytes:
        """Digest of all modified records, used to compare replica states."""
        hasher = hashlib.sha256()
        for key in sorted(self._written):
            hasher.update(key.to_bytes(8, "big"))
            hasher.update(self._written[key])
        return hasher.digest()


__all__ = ["KeyValueTable"]
