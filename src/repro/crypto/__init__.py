"""Digests, and signatures and certificates as data.

The paper authenticates every message — MACs for messages that are never
forwarded, digital signatures for those that may be (client requests,
Propose, Sync).  The simulator does neither: it holds no key and computes
and checks no tag.  A sender is whoever the network delivered from, and
Byzantine behaviour comes from :mod:`repro.faults`, not from forgery.

What a run reads is :mod:`repro.crypto.digest` (SHA-256 over a canonical
encoding — the only cryptography actually computed) and the
:class:`Signature` / :class:`Certificate` records, which count distinct
signers, feed proposal digests and are charged on the wire by
:mod:`repro.net.sizes`.  What MACs and signatures cost in CPU time lives
only in :class:`repro.analysis.model.ResourceProfile`.
"""

from repro.crypto.digest import digest_bytes
from repro.crypto.certificates import Certificate, Signature

__all__ = [
    "Certificate",
    "Signature",
    "digest_bytes",
]
