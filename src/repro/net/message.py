"""Base message type shared by every protocol."""

from __future__ import annotations

from repro.net.record import record


@record
class Message:
    """Base class for protocol messages.

    Concrete message types are frozen dataclasses built by
    :func:`repro.net.record.record`.  A message on the wire is its fields:
    the simulator computes no MAC or signature over it, so it has no
    canonical encoding.  Only the records a run hashes have one
    (``canonical_fields``, see :mod:`repro.crypto.digest`).
    """


@record
class InformMessage(Message):
    """Execution result returned to a client (Section 5).

    Defined here rather than with the SpotLess messages because the shared
    replica runtime sends it on behalf of every protocol.
    """

    replica: int
    client_id: int
    transaction_digest: bytes


__all__ = ["InformMessage", "Message"]
