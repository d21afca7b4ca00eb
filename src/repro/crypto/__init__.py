"""Digests, and quorum certificates as data.

The paper authenticates every message — MACs for messages that are never
forwarded, digital signatures for those that may be (client requests,
Propose, Sync).  The simulator does neither: it holds no key and computes
and checks no tag.  A sender is whoever the network delivered from, and
Byzantine behaviour comes from :mod:`repro.faults`, not from forgery.

What a run reads is :mod:`repro.crypto.digest` (SHA-256 over a canonical
encoding — the only cryptography actually computed) and the
:class:`QuorumCert` record — a ``(view, digest)`` claim and the ids of its
signers, valid under one rule (:func:`is_quorum`) — which feeds proposal
digests and is charged on the wire by :mod:`repro.net.sizes`.  What MACs
and signatures cost in CPU time lives only in
:class:`repro.analysis.model.ResourceProfile`.
"""

from repro.crypto.digest import digest_bytes
from repro.crypto.certificates import QuorumCert, is_quorum

__all__ = [
    "QuorumCert",
    "digest_bytes",
    "is_quorum",
]
