"""Client transactions and the operations they carry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.digest import digest_bytes, digest_to_int


@dataclass(frozen=True, slots=True)
class Operation:
    """One read or write against the YCSB table."""

    kind: str
    key: int
    value: Optional[bytes] = None

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing."""
        return (self.kind, self.key, self.value)

    @staticmethod
    def read(key: int) -> "Operation":
        """A read of ``key``."""
        return Operation(kind="read", key=key)

    @staticmethod
    def write(key: int, value: bytes) -> "Operation":
        """A write of ``value`` to ``key``."""
        return Operation(kind="write", key=key, value=value)

    @staticmethod
    def noop(tag: int = 0) -> "Operation":
        """A no-op operation (used for the no-op transactions of Section 5)."""
        return Operation(kind="noop", key=tag)


@dataclass(frozen=True, slots=True)
class Transaction:
    """A client transaction: an ordered list of operations.

    ``client_id`` and ``sequence`` make transactions from the same client
    distinct; the no-op transactions proposed by idle primaries use
    ``client_id = -1``.
    """

    client_id: int
    sequence: int
    operations: Tuple[Operation, ...]
    # Memo of digest(): never passed in, printed, compared or hashed, and
    # ``dataclasses.replace`` does not carry it over.
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing and signing."""
        return (self.client_id, self.sequence, tuple(op.canonical_fields() for op in self.operations))

    def digest(self) -> bytes:
        """Digest identifying this transaction.

        Memoized: the submit/batch/execute paths all re-derive the digest,
        so each payload is hashed exactly once.  The cache is safe because
        the dataclass is frozen (and the memo field is excluded from
        equality and hashing).
        """
        cached = self._digest
        if cached is None:
            cached = digest_bytes(self.canonical_fields())
            object.__setattr__(self, "_digest", cached)
        return cached

    def is_noop(self) -> bool:
        """True for the no-op filler transactions."""
        return self.client_id < 0

    def instance_assignment(self, num_instances: int) -> int:
        """Instance that may propose this transaction (Section 5).

        The paper assigns a request with digest ``d`` to instance ``i`` with
        ``(i - 1) = d mod m`` (1-based); we use the equivalent 0-based form
        ``i = d mod m``.
        """
        if num_instances < 1:
            raise ValueError("num_instances must be positive")
        return digest_to_int(self.digest()) % num_instances


__all__ = ["Operation", "Transaction"]
