"""Append-only, hash-chained ledger held by each replica."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.ledger.block import Block, BlockProof, genesis_block


class Ledger:
    """An immutable blockchain ledger of executed batches.

    The ledger provides the data-provenance property described in
    Section 6.1: every appended block references the digest of its parent
    and carries the consensus proof of its acceptance, so any replica (or
    auditor) can verify the full history.
    """

    def __init__(self) -> None:
        self._blocks: List[Block] = [genesis_block()]

    @property
    def height(self) -> int:
        """Height of the latest block (genesis is height 0)."""
        return self._blocks[-1].height

    @property
    def head(self) -> Block:
        """The latest block."""
        return self._blocks[-1]

    def __len__(self) -> int:
        return len(self._blocks)

    def append(
        self,
        transactions: Iterable[bytes],
        proof: Optional[BlockProof] = None,
    ) -> Block:
        """Append a new block containing ``transactions``.

        The new block's parent digest is computed from the current head, so
        the caller cannot accidentally fork the chain.
        """
        block = Block(
            height=self.height + 1,
            parent_digest=self.head.digest(),
            transactions=tuple(transactions),
            proof=proof,
        )
        self._blocks.append(block)
        return block

    def verify_chain(self) -> bool:
        """Check the hash chain from genesis to head."""
        for previous, current in zip(self._blocks, self._blocks[1:]):
            if current.parent_digest != previous.digest():
                return False
            if current.height != previous.height + 1:
                return False
        return True

    def blocks(self) -> Tuple[Block, ...]:
        """All blocks from genesis to head."""
        return tuple(self._blocks)

    def transaction_digests(self) -> List[bytes]:
        """Every executed transaction digest, in execution order."""
        digests: List[bytes] = []
        for block in self._blocks:
            digests.extend(block.transactions)
        return digests


__all__ = ["Ledger"]
