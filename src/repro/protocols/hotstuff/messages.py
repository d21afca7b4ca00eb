"""Chained HotStuff messages."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import Message
from repro.net.record import record
from repro.workload.requests import Transaction


@record
class QuorumCert:
    """A quorum certificate over ``(view, node_digest)``.

    The paper's implementation represents threshold signatures as lists of
    n − f secp256k1 signatures; ``signers`` records who contributed, and the
    certificate's wire size and verification cost scale with that list.
    """

    view: int
    node_digest: bytes
    signers: Tuple[int, ...]

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing."""
        return (self.view, self.node_digest, self.signers)

    def is_valid(self, quorum: int) -> bool:
        """True when the certificate has at least ``quorum`` distinct signers."""
        return len(set(self.signers)) >= quorum


@record
class HsProposal(Message):
    """The leader's proposal for one view: a chain node extending ``justify``."""

    view: int
    node_digest: bytes
    parent_digest: bytes
    transaction_digests: Tuple[bytes, ...]
    justify: Optional[QuorumCert]

    def canonical_fields(self) -> tuple:
        """Fields covered by the leader's signature."""
        justify_fields = self.justify.canonical_fields() if self.justify else None
        return (
            "hs-proposal",
            self.view,
            self.node_digest,
            self.parent_digest,
            self.transaction_digests,
            justify_fields,
        )


@record
class HsVote(Message):
    """A replica's (partial-signature) vote on a proposal, sent to the next leader."""

    view: int
    node_digest: bytes
    voter: int

    def canonical_fields(self) -> tuple:
        """Fields covered by the voter's signature."""
        return ("hs-vote", self.view, self.node_digest, self.voter)


@record
class HsNewView(Message):
    """Pacemaker message: sent to the next leader on view timeout."""

    view: int
    high_qc: Optional[QuorumCert]

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        qc_fields = self.high_qc.canonical_fields() if self.high_qc else None
        return ("hs-newview", self.view, qc_fields)


@record
class HsNodeData(Message):
    """One chain node shipped during chain synchronisation.

    The receiver recomputes the node digest from (view, parent, batch) and
    discards entries whose digest does not match — a Byzantine responder
    cannot forge chain content.
    """

    digest: bytes
    view: int
    parent_digest: bytes
    transaction_digests: Tuple[bytes, ...]
    justify: Optional[QuorumCert] = None

    def canonical_fields(self) -> tuple:
        """Canonical encoding for authentication."""
        justify_fields = self.justify.canonical_fields() if self.justify else None
        return (
            "hs-node-data",
            self.digest,
            self.view,
            self.parent_digest,
            self.transaction_digests,
            justify_fields,
        )


@record
class HsChainRequest(Message):
    """Ask a peer for the ancestors of a chain node we only know by QC.

    ``want_payloads`` additionally asks for the transaction payloads of the
    returned segment: a straggler whose commits outran its payload store
    (it missed the client broadcasts while partitioned) uses this to pull
    the bodies it needs to execute an already-committed prefix.
    """

    node_digest: bytes
    want_payloads: bool = False

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("hs-chain-request", self.node_digest, self.want_payloads)


@record
class HsChainResponse(Message):
    """A chain segment walking certified ancestors toward the committed prefix.

    ``payloads`` is only populated for ``want_payloads`` requests.  Payloads
    are deliberately outside the canonical fields: the receiver re-hashes
    each one and only registers those referenced by a digest-verified node,
    so a Byzantine responder cannot smuggle forged request bodies.
    """

    nodes: Tuple[HsNodeData, ...]
    payloads: Tuple[Transaction, ...] = ()

    def canonical_fields(self) -> tuple:
        """Fields covered by authentication."""
        return ("hs-chain-response", tuple(node.canonical_fields() for node in self.nodes))


__all__ = [
    "HsChainRequest",
    "HsChainResponse",
    "HsNewView",
    "HsNodeData",
    "HsProposal",
    "HsVote",
    "QuorumCert",
]
