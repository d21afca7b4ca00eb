"""Blocks stored in the replicated ledger."""

from __future__ import annotations

import hashlib
from dataclasses import field
from typing import Optional, Tuple

from repro.net.record import record


@record(slots=True)
class BlockProof:
    """Cryptographic acceptance proof attached to a block.

    In ResilientDB the ledger stores, next to every block, the consensus
    certificate proving the block was accepted.  The proof records the
    protocol, the consensus round identifiers, and the identities of the
    quorum that accepted it.
    """

    protocol: str
    view: int
    instance: int
    quorum: Tuple[str, ...]
    # Memo of encoded(): never passed in, printed, compared or hashed, and
    # ``dataclasses.replace`` does not carry it over.
    _encoded: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def canonical_fields(self) -> tuple:
        """Canonical encoding used when hashing the block."""
        return (self.protocol, self.view, self.instance, self.quorum)

    def encoded(self) -> bytes:
        """Memoized canonical byte encoding (the proof is immutable).

        Execution pipelines reuse the proof while an instance stays in one
        view, so those blocks share one encoding.  Assembled inline,
        byte-identical to ``canonical_bytes(self.canonical_fields())``.
        """
        cached = self._encoded
        if cached is None:
            quorum = self.quorum
            cached = (
                b"t4:s%si%di%dt%d:" % (self.protocol.encode("utf-8"), self.view, self.instance, len(quorum))
                + b"".join([b"s" + member.encode("utf-8") for member in quorum])
            )
            object.__setattr__(self, "_encoded", cached)
        return cached


@record(slots=True)
class Block:
    """One ledger entry: an ordered batch of executed transactions.

    ``parent_digest`` chains blocks together, making the ledger tamper
    evident; ``transactions`` holds the digests of the executed client
    transactions in execution order.
    """

    height: int
    parent_digest: bytes
    transactions: Tuple[bytes, ...]
    proof: Optional[BlockProof] = None
    # Memo of digest(), declared like ``BlockProof._encoded``.
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def canonical_fields(self) -> tuple:
        """Canonical encoding of the block for hashing."""
        proof_fields = self.proof.canonical_fields() if self.proof else None
        return (self.height, self.parent_digest, self.transactions, proof_fields)

    def digest(self) -> bytes:
        """Digest identifying this block (memoized; the block is immutable).

        The encoding is assembled inline — byte-identical to
        ``digest_bytes(self.canonical_fields())``, which the ledger tests
        assert — so the proof sub-encoding can come from the per-proof memo
        instead of being rebuilt for every block.
        """
        cached = self._digest
        if cached is None:
            transactions = self.transactions
            body = (
                b"t4:i%d" % self.height
                + b"b" + self.parent_digest
                + b"t%d:" % len(transactions)
                + b"".join([b"b" + item for item in transactions])
                + (self.proof.encoded() if self.proof is not None else b"n")
            )
            cached = hashlib.sha256(body).digest()
            object.__setattr__(self, "_digest", cached)
        return cached


GENESIS_DIGEST = b"\x00" * 32


def genesis_block() -> Block:
    """The well-known genesis block shared by every replica."""
    return Block(height=0, parent_digest=GENESIS_DIGEST, transactions=())


__all__ = ["Block", "BlockProof", "GENESIS_DIGEST", "genesis_block"]
