"""CPU cost model for cryptographic operations.

The evaluation's protocol ordering hinges on the relative costs of crypto
operations: verifying a secp256k1 signature is two to three orders of
magnitude slower than verifying an HMAC, which is why Narwhal-HS is compute
bound (it verifies O(n) signatures per block) while SpotLess verifies O(n)
MACs (Section 6.4).  The defaults below are taken from typical measurements
on the paper's hardware class (16-core EPYC at 3.4 GHz) and can be scaled
uniformly to model slower or faster machines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.sim.cpu import CpuTask


@lru_cache(maxsize=4096)
def _interned_task(name: str, seconds: float) -> CpuTask:
    """Return a shared :class:`CpuTask` for a (name, seconds) pair.

    Protocol handlers charge the same fixed costs (one MAC verify, one
    message handled, a standard-size batch hashed) millions of times per
    run; interning avoids allocating a frozen dataclass per operation.
    ``CpuTask`` is immutable, so sharing instances is safe.
    """
    return CpuTask(name=name, seconds=seconds)


@dataclass(frozen=True)
class CryptoCostModel:
    """Single-core seconds per cryptographic operation.

    Attributes
    ----------
    mac_generate / mac_verify:
        HMAC-SHA256 over a message of typical consensus size (hundreds of
        bytes): well under a microsecond.
    signature_sign / signature_verify:
        secp256k1 ECDSA sign and verify.
    hash_per_byte:
        Incremental hashing cost, charged for digesting client batches.
    message_handling:
        Fixed protocol bookkeeping per received message (deserialisation,
        dispatch, state updates), independent of crypto.
    """

    mac_generate: float = 2.0e-7
    mac_verify: float = 2.0e-7
    signature_sign: float = 5.0e-5
    signature_verify: float = 8.0e-5
    hash_per_byte: float = 3.0e-9
    message_handling: float = 1.5e-6

    def scaled(self, factor: float) -> "CryptoCostModel":
        """Return a model with every cost multiplied by ``factor``."""
        return replace(
            self,
            mac_generate=self.mac_generate * factor,
            mac_verify=self.mac_verify * factor,
            signature_sign=self.signature_sign * factor,
            signature_verify=self.signature_verify * factor,
            hash_per_byte=self.hash_per_byte * factor,
            message_handling=self.message_handling * factor,
        )

    # -- task helpers ----------------------------------------------------

    def verify_task(self, count: int = 1) -> CpuTask:
        """CPU task for verifying ``count`` digital signatures."""
        return _interned_task("signature_verify", self.signature_verify * count)

    def hash_task(self, num_bytes: int) -> CpuTask:
        """CPU task for hashing ``num_bytes`` bytes (memoized per size)."""
        return _interned_task("hash", self.hash_per_byte * num_bytes)

    def handling_task(self, count: int = 1) -> CpuTask:
        """CPU task for generic handling of ``count`` messages."""
        return _interned_task("message_handling", self.message_handling * count)


__all__ = ["CryptoCostModel"]
