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

    def is_valid(self, quorum: int) -> bool:
        """True when the certificate has at least ``quorum`` distinct signers."""
        return len(set(self.signers)) >= quorum


@record
class HsProposal(Message):
    """The leader's proposal for one view: a chain node extending ``justify``,
    carrying its batch of client transactions."""

    view: int
    node_digest: bytes
    parent_digest: bytes
    transactions: Tuple[Transaction, ...]
    justify: Optional[QuorumCert]


@record
class HsVote(Message):
    """A replica's (partial-signature) vote on a proposal, sent to the next leader."""

    view: int
    node_digest: bytes
    voter: int


@record
class HsNewView(Message):
    """Pacemaker message: sent to the next leader on view timeout."""

    view: int
    high_qc: Optional[QuorumCert]


@record
class HsNodeData(Message):
    """One chain node shipped during chain synchronisation.

    The node carries its batch's transactions.  The receiver recomputes the
    node digest from (view, parent, batch) and discards entries whose digest
    does not match — a Byzantine responder cannot forge chain content.
    """

    digest: bytes
    view: int
    parent_digest: bytes
    transactions: Tuple[Transaction, ...]
    justify: Optional[QuorumCert] = None


@record
class HsChainRequest(Message):
    """Ask a peer for the ancestors of a chain node we only know by QC."""

    node_digest: bytes


@record
class HsChainResponse(Message):
    """A chain segment walking certified ancestors toward the committed prefix."""

    nodes: Tuple[HsNodeData, ...]


__all__ = [
    "HsChainRequest",
    "HsChainResponse",
    "HsNewView",
    "HsNodeData",
    "HsProposal",
    "HsVote",
    "QuorumCert",
]
