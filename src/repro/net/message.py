"""Base message type shared by every protocol."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Message:
    """Base class for protocol messages.

    Concrete message types are frozen dataclasses; ``canonical_fields``
    returns the tuple of fields that identify the message — what a digest of
    it covers (the simulator computes no MAC or signature over them).
    """

    def canonical_fields(self) -> tuple:
        """Tuple of identifying fields; overridden by subclasses."""
        raise NotImplementedError


@dataclass(frozen=True)
class InformMessage(Message):
    """Execution result returned to a client (Section 5).

    Defined here rather than with the SpotLess messages because the shared
    replica runtime sends it on behalf of every protocol.
    """

    replica: int
    client_id: int
    transaction_digest: bytes
    success: bool = True

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("inform", self.replica, self.client_id, self.transaction_digest, self.success)


__all__ = ["InformMessage", "Message"]
