"""Quorum certificates, as data.

A SpotLess certificate ``cert(P')`` is n − f signed Sync messages claiming
proposal ``P'`` (Section 3.3); a HotStuff QC is n − f votes on one chain
node.  Both are a statement — a ``(view, digest)`` claim — and the ids of
the replicas that signed it.  The simulator computes and checks no tag, so a
certificate contributes its statement, its signers and (through
:mod:`repro.net.sizes`) its bytes on the wire, and is checked by one rule:
:func:`is_quorum`, which the stable checkpoint's certificate shares.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.record import record


def is_quorum(signers: Tuple[int, ...], quorum: int, num_replicas: int) -> bool:
    """True when ``signers`` names at least ``quorum`` distinct replicas, every
    one of them an id in ``0..num_replicas − 1``."""
    distinct = set(signers)
    return len(distinct) >= quorum and distinct.issubset(range(num_replicas))


@record
class QuorumCert:
    """n − f replicas' signatures over the claim ``(view, digest)``.

    ``signers`` are the ids of the replicas whose signatures the certificate
    carries; it is valid when :meth:`has_quorum` holds.
    """

    view: int
    digest: bytes
    signers: Tuple[int, ...]

    def has_quorum(self, quorum: int, num_replicas: int) -> bool:
        """True when at least ``quorum`` distinct in-range replicas signed."""
        return is_quorum(self.signers, quorum, num_replicas)

    def canonical_fields(self) -> tuple:
        """Canonical encoding for hashing certificates into proposals: each
        signer as a ``("replica:<id>", b"")`` pair, its identity and an
        empty signature tag."""
        return ((self.view, self.digest), tuple((f"replica:{signer}", b"") for signer in self.signers))


__all__ = ["QuorumCert", "is_quorum"]
