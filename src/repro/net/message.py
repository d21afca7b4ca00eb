"""Base message and envelope types shared by every protocol."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crypto.authenticator import Signature

_message_sequence = itertools.count()


@dataclass(frozen=True)
class Message:
    """Base class for protocol messages.

    Concrete message types are frozen dataclasses; ``canonical_fields`` must
    return the tuple of fields covered by authentication so signing and
    verification agree on the byte representation.
    """

    def canonical_fields(self) -> tuple:
        """Tuple of fields covered by MACs/signatures; overridden by subclasses."""
        raise NotImplementedError

    def type_name(self) -> str:
        """Short type name used in metrics and traces."""
        return type(self).__name__


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


@dataclass(frozen=True)
class Envelope:
    """A message in flight: payload plus transport metadata.

    The envelope carries the authentication material (MAC tag and optional
    signature) separately from the payload so forwarded messages keep their
    original signature, exactly as the paper requires for Sync and Propose
    forwarding.
    """

    sender: int
    message: Message
    size_bytes: int
    mac_tag: Optional[bytes] = None
    signature: Optional[Signature] = None
    forwarded_by: Optional[int] = None
    sequence: int = field(default_factory=lambda: next(_message_sequence))

    def with_forwarder(self, forwarder: int) -> "Envelope":
        """Copy of this envelope marked as forwarded by ``forwarder``."""
        return Envelope(
            sender=self.sender,
            message=self.message,
            size_bytes=self.size_bytes,
            mac_tag=None,
            signature=self.signature,
            forwarded_by=forwarder,
            sequence=self.sequence,
        )

    def described(self) -> str:
        """Human-readable one-line description for traces."""
        suffix = f" via {self.forwarded_by}" if self.forwarded_by is not None else ""
        return f"{self.message.type_name()} from {self.sender}{suffix} ({self.size_bytes} B)"


__all__ = ["Envelope", "InformMessage", "Message"]
