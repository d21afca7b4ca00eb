"""Message digests.

SpotLess identifies proposals and client requests by their digest and uses
``digest(tx) mod m`` to assign a request to one of the m concurrent
instances (Section 5).  A cryptographically strong hash gives a uniform
assignment, which the paper relies on for load balance; we use SHA-256.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` into a canonical byte string for hashing.

    Supports the small universe of types that appear in hashed records:
    bytes, strings, integers, floats, None, and (nested) tuples/lists/dicts
    of those.  An object is encoded as the tuple its ``canonical_fields()``
    returns; only the eight records whose hash is assembled inline elsewhere
    define one, as that encoder's reference: ``Transaction``, ``Operation``,
    ``ProposeMessage``, ``QuorumCert``, ``Block``, ``BlockProof``,
    ``SlotRecord`` and ``SlotEntry``.  Wire messages have no
    canonical form (the simulator authenticates nothing).
    """
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"i%d" % value
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if value is None:
        return b"n"
    if isinstance(value, (tuple, list)):
        return b"t%d:" % len(value) + b"".join([_canonical_bytes(item) for item in value])
    if isinstance(value, dict):
        parts = b"".join(
            [_canonical_bytes(key) + _canonical_bytes(value[key]) for key in sorted(value, key=repr)]
        )
        return b"d%d:" % len(value) + parts
    if hasattr(value, "canonical_fields"):
        return _canonical_bytes(value.canonical_fields())
    raise TypeError(f"cannot canonically encode {type(value)!r}")


def digest_bytes(value: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``value``."""
    return hashlib.sha256(_canonical_bytes(value)).digest()


def digest_to_int(digest: bytes) -> int:
    """Interpret a digest as a big-endian integer (for modular assignment)."""
    return int.from_bytes(digest, "big")


#: Public alias: the reference encoding that the encoders assembled inline on
#: the hot path are tested against — ``Transaction.digest`` (with its
#: ``Operation``s), ``ProposeMessage.digest`` (with its ``QuorumCert``),
#: ``Block.digest``, ``BlockProof.encoded`` and
#: ``fold_entry`` (``SlotEntry`` and its ``SlotRecord``s).
canonical_bytes = _canonical_bytes


__all__ = ["canonical_bytes", "digest_bytes", "digest_to_int"]
