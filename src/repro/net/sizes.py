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
# Raw size constants taken from the ResilientDB deployment.
REFERENCE_BATCH_SIZE = 100
TRANSACTION_BYTES = 48
PROPOSAL_BYTES_AT_REFERENCE = 5400
REPLY_BYTES_AT_REFERENCE = 1748
CONTROL_MESSAGE_BYTES = 432
SIGNATURE_BYTES = 64
DIGEST_BYTES = 32
HEADER_BYTES = 72


@dataclass(frozen=True)
class MessageSizeModel:
    """Computes message sizes for a given batch/transaction configuration.

    The proposal size decomposes into a fixed header plus per-transaction
    payload; the reference constants pin the decomposition so that the
    default configuration (100 txn/batch, ``TRANSACTION_BYTES`` per
    transaction) reproduces the paper's numbers exactly.
    """

    batch_size: int = REFERENCE_BATCH_SIZE
    transaction_bytes: int = TRANSACTION_BYTES

    def _per_transaction_overhead(self) -> float:
        payload = REFERENCE_BATCH_SIZE * TRANSACTION_BYTES
        overhead = PROPOSAL_BYTES_AT_REFERENCE - HEADER_BYTES - payload
        return overhead / REFERENCE_BATCH_SIZE

    def proposal_bytes(self, carried: int) -> int:
        """Size of a proposal carrying ``carried`` client transactions.

        A proposal carries its transactions, so it is priced by what it
        carries: the header plus each transaction with its share of the
        per-transaction overhead, 5,400 B for the paper's 100.  Every
        proposal-shaped thing on the wire pays it — a Propose, PrePrepare or
        HotStuff proposal, a forwarded proposal, a chain-sync node, a
        re-proposed view-change slot and a state-transfer record — so an
        empty no-op batch costs the header alone.
        """
        per_txn = self.transaction_bytes + self._per_transaction_overhead()
        return int(round(HEADER_BYTES + carried * per_txn))

    def reply_bytes(self) -> int:
        """Size of a client reply (Inform) covering one batch."""
        scale = self.batch_size / REFERENCE_BATCH_SIZE
        payload = REPLY_BYTES_AT_REFERENCE - HEADER_BYTES
        return int(round(HEADER_BYTES + payload * scale))

    def control_bytes(self, signatures: int = 0) -> int:
        """Size of a control message carrying ``signatures`` embedded signatures.

        Sync messages, PBFT Prepare/Commit, and HotStuff votes all fall in
        this bucket; certificates and emulated threshold signatures add one
        signature worth of bytes per aggregated partial.
        """
        return CONTROL_MESSAGE_BYTES + signatures * SIGNATURE_BYTES

    def certificate_bytes(self, quorum: int) -> int:
        """Size of a quorum certificate with ``quorum`` signatures."""
        return DIGEST_BYTES + quorum * SIGNATURE_BYTES

    def request_bytes(self) -> int:
        """Size of a single signed client request."""
        return HEADER_BYTES + self.transaction_bytes + SIGNATURE_BYTES + DIGEST_BYTES

    def batch_payload_bytes(self) -> int:
        """Raw payload bytes of one batch of client transactions."""
        return self.batch_size * self.transaction_bytes


__all__ = [
    "CONTROL_MESSAGE_BYTES",
    "DIGEST_BYTES",
    "HEADER_BYTES",
    "MessageSizeModel",
    "PROPOSAL_BYTES_AT_REFERENCE",
    "REFERENCE_BATCH_SIZE",
    "REPLY_BYTES_AT_REFERENCE",
    "SIGNATURE_BYTES",
    "TRANSACTION_BYTES",
]
