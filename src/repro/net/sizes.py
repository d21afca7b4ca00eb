"""Wire-size model for protocol messages.

The constants follow Section 6.1 of the paper: with 100 transactions per
batch a proposal is 5400 B, a client reply (Inform covering a batch) is
1748 B, and every other replication message (Sync, votes, view-change
messages without payload) is 432 B.  Sizes scale with batch size and with
the per-transaction payload size for the batching and transaction-size
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizeConstants:
    """Raw size constants taken from the ResilientDB deployment."""

    reference_batch_size: int = 100
    reference_transaction_bytes: int = 48
    proposal_bytes_at_reference: int = 5400
    reply_bytes_at_reference: int = 1748
    control_message_bytes: int = 432
    signature_bytes: int = 64
    mac_bytes: int = 32
    digest_bytes: int = 32
    header_bytes: int = 72


@dataclass(frozen=True)
class MessageSizeModel:
    """Computes message sizes for a given batch/transaction configuration.

    The proposal size decomposes into a fixed header plus per-transaction
    payload; the reference constants pin the decomposition so that the
    default configuration (100 txn/batch, 48 B transactions) reproduces the
    paper's numbers exactly.
    """

    constants: SizeConstants = SizeConstants()
    batch_size: int = 100
    transaction_bytes: int = 48

    def _per_transaction_overhead(self) -> float:
        payload = self.constants.reference_batch_size * self.constants.reference_transaction_bytes
        overhead = self.constants.proposal_bytes_at_reference - self.constants.header_bytes - payload
        return overhead / self.constants.reference_batch_size

    def proposal_bytes(self) -> int:
        """Size of a Propose/PrePrepare message carrying one batch."""
        per_txn = self.transaction_bytes + self._per_transaction_overhead()
        return int(round(self.constants.header_bytes + self.batch_size * per_txn))

    def reply_bytes(self) -> int:
        """Size of a client reply (Inform) covering one batch."""
        scale = self.batch_size / self.constants.reference_batch_size
        payload = self.constants.reply_bytes_at_reference - self.constants.header_bytes
        return int(round(self.constants.header_bytes + payload * scale))

    def control_bytes(self, signatures: int = 0) -> int:
        """Size of a control message carrying ``signatures`` embedded signatures.

        Sync messages, PBFT Prepare/Commit, and HotStuff votes all fall in
        this bucket; certificates and emulated threshold signatures add one
        signature worth of bytes per aggregated partial.
        """
        return self.constants.control_message_bytes + signatures * self.constants.signature_bytes

    def certificate_bytes(self, quorum: int) -> int:
        """Size of a quorum certificate with ``quorum`` signatures."""
        return self.constants.digest_bytes + quorum * self.constants.signature_bytes

    def request_bytes(self) -> int:
        """Size of a single signed client request."""
        return (
            self.constants.header_bytes
            + self.transaction_bytes
            + self.constants.signature_bytes
            + self.constants.digest_bytes
        )

    def batch_payload_bytes(self) -> int:
        """Raw payload bytes of one batch of client transactions."""
        return self.batch_size * self.transaction_bytes


__all__ = ["MessageSizeModel", "SizeConstants"]
