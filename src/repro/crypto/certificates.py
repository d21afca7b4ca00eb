"""Signatures and quorum certificates, as data.

A SpotLess certificate ``cert(P')`` is a list of n − f digital signatures
over Sync messages claiming proposal ``P'`` (Section 3.3).  Both types are
plain records — the simulator computes and checks no tag — so a certificate
contributes its statement, its count of *distinct* signers, and its bytes in
a proposal digest and (through :mod:`repro.net.sizes`) on the wire.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.record import record


@record
class Signature:
    """A digital signature: the signer identity plus the signature tag.

    Matches the paper's notation ``⟦v⟧_p`` — value ``v`` signed by
    participant ``p``.
    """

    signer: str
    tag: bytes

    def canonical_fields(self) -> tuple:
        """Canonical representation used when signatures are themselves hashed."""
        return (self.signer, self.tag)


@record
class Certificate:
    """A quorum certificate: n − f signatures over the same statement.

    ``statement`` is the canonical tuple the signatures cover (for SpotLess a
    ``(view, digest)`` claim) and ``signatures`` is the tuple of distinct
    replica signatures.
    """

    statement: Tuple
    signatures: Tuple[Signature, ...]

    def signers(self) -> Tuple[str, ...]:
        """Identities of the signers, in certificate order."""
        return tuple(signature.signer for signature in self.signatures)

    def has_quorum(self, quorum: int) -> bool:
        """True when the certificate carries at least ``quorum`` distinct signers."""
        return len(set(self.signers())) >= quorum

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing certificates into proposals."""
        return (self.statement, tuple(sig.canonical_fields() for sig in self.signatures))


__all__ = ["Certificate", "Signature"]
