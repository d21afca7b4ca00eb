"""SpotLess protocol messages.

The message vocabulary follows Section 3:

* ``Propose(v, τ, cert(P′))`` — the primary of view ``v`` proposes batch
  ``τ`` extending proposal ``P′``, justified either by a certificate
  (rule E1) or by a claim that n − f replicas conditionally prepared ``P′``
  (rule E2).
* ``Sync(v, claim(P), CP[, Υ])`` — a backup's vote for the proposal it
  received in view ``v`` (or ``claim(∅)`` when it detected a failure),
  together with the CP set of conditionally prepared proposals at or above
  its lock, and optionally the retransmission flag Υ used by Rapid View
  Synchronization.
* ``Ask(v, claim(P))`` — sent by a replica that learned about ``P`` only via
  f + 1 Sync messages and needs the full proposal.
* ``Inform`` — execution result returned to the client.

Below the consensus vocabulary, every replica additionally speaks the
recovery-layer messages (checkpoint votes and state requests/responses) —
defined in :mod:`repro.recovery.messages` and re-exported here so the full
wire surface of a SpotLess deployment is visible in one place.
"""

from __future__ import annotations

import hashlib
from dataclasses import field
from typing import Optional, Tuple

from repro.crypto.certificates import Certificate, Signature
from repro.crypto.digest import canonical_bytes
from repro.net.message import InformMessage, Message
from repro.net.record import record
from repro.recovery.messages import (
    CheckpointCertificate,
    CheckpointVote,
    StateRequest,
    StateResponse,
)


@record(slots=True)
class Claim:
    """``claim(P) = (v, digest(P), ⟦P⟧_P)``: a claim that proposal P was
    the well-formed proposal received in view v.

    ``claim(∅)`` (a failure claim) is represented by ``digest = None``.
    """

    view: int
    digest: Optional[bytes]
    primary_signature: Optional[Signature] = None

    @property
    def is_failure(self) -> bool:
        """True for ``claim(∅)`` — the replica saw no acceptable proposal."""
        return self.digest is None

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing and signing."""
        signature_fields = self.primary_signature.canonical_fields() if self.primary_signature else None
        return (self.view, self.digest, signature_fields)

    def statement(self) -> tuple:
        """The (view, digest) statement this claim makes, for quorum counting."""
        return (self.view, self.digest)

    @staticmethod
    def failure(view: int) -> "Claim":
        """Build a ``claim(∅)`` for ``view``."""
        return Claim(view=view, digest=None, primary_signature=None)


@record(slots=True)
class CpEntry:
    """One ``(view, digest)`` entry of a CP set."""

    view: int
    digest: bytes

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing."""
        return (self.view, self.digest)


@record
class ProposeMessage(Message):
    """``Propose(v, τ, cert(P′))`` broadcast by the primary of view ``v``.

    ``parent_digest`` identifies the preceding proposal P′.  Exactly one of
    ``parent_certificate`` (rule E1) or ``parent_claim_quorum`` (rule E2 — a
    tuple of replica ids whose Sync messages claimed P′ in their CP sets) is
    set for non-genesis parents.
    """

    instance: int
    view: int
    transaction_digests: Tuple[bytes, ...]
    parent_digest: bytes
    parent_view: int
    parent_certificate: Optional[Certificate] = None
    parent_claim_quorum: Tuple[int, ...] = ()
    # Memo of digest(): never passed in, printed, compared or hashed.
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def canonical_fields(self) -> tuple:
        """Fields covered by the primary's signature."""
        certificate_fields = self.parent_certificate.canonical_fields() if self.parent_certificate else None
        return (
            "propose",
            self.instance,
            self.view,
            self.transaction_digests,
            self.parent_digest,
            self.parent_view,
            certificate_fields,
            self.parent_claim_quorum,
        )

    def digest(self) -> bytes:
        """``digest(P)``, the identity of the proposal this message carries.

        Memoized as :meth:`repro.workload.requests.Transaction.digest` is:
        one delivered object reaches every replica of a simulated cluster,
        so it is hashed once instead of once per receiver.  The memo is not
        an ``__init__`` parameter, so ``dataclasses.replace`` builds a message
        without it and a rewritten proposal can never inherit a stale digest.
        The encoding is assembled inline, byte-identical to
        ``digest_bytes(self.canonical_fields())``.
        """
        cached = self._digest
        if cached is None:
            batch = self.transaction_digests
            certificate = self.parent_certificate
            if certificate:
                signatures = certificate.signatures
                certificate_bytes = (
                    b"t2:"
                    + canonical_bytes(certificate.statement)
                    + b"t%d:" % len(signatures)
                    + b"".join([b"t2:s%sb%s" % (s.signer.encode("utf-8"), s.tag) for s in signatures])
                )
            else:
                certificate_bytes = b"n"
            quorum = self.parent_claim_quorum
            body = b"".join(
                [
                    b"t8:sproposei%di%dt%d:" % (self.instance, self.view, len(batch)),
                    b"".join([b"b" + digest for digest in batch]),
                    b"b%si%d" % (self.parent_digest, self.parent_view),
                    certificate_bytes,
                    b"t%d:" % len(quorum),
                    b"".join([b"i%d" % replica for replica in quorum]),
                ]
            )
            cached = hashlib.sha256(body).digest()
            object.__setattr__(self, "_digest", cached)
        return cached


@record
class SyncMessage(Message):
    """``Sync(v, claim(P), CP[, Υ])`` broadcast by every replica in view ``v``."""

    instance: int
    view: int
    claim: Claim
    cp_set: Tuple[CpEntry, ...] = ()
    retransmit_flag: bool = False

    def canonical_fields(self) -> tuple:
        """Fields covered by the sender's MAC and signature."""
        return (
            "sync",
            self.instance,
            self.view,
            self.claim.canonical_fields(),
            tuple(entry.canonical_fields() for entry in self.cp_set),
            self.retransmit_flag,
        )


@record
class AskMessage(Message):
    """``Ask(v, claim(P))`` — request the full proposal behind a claim."""

    instance: int
    view: int
    claim: Claim

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("ask", self.instance, self.view, self.claim.canonical_fields())


@record
class ProposalForward(Message):
    """Reply to an Ask: the recorded Propose message forwarded verbatim."""

    instance: int
    propose: ProposeMessage
    primary_signature: Optional[Signature] = None

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        signature_fields = self.primary_signature.canonical_fields() if self.primary_signature else None
        return ("forward", self.instance, self.propose.canonical_fields(), signature_fields)


__all__ = [
    "AskMessage",
    "CheckpointCertificate",
    "CheckpointVote",
    "Claim",
    "CpEntry",
    "InformMessage",
    "ProposalForward",
    "ProposeMessage",
    "StateRequest",
    "StateResponse",
    "SyncMessage",
]
