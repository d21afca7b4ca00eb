"""Narwhal-HS replica: HotStuff ordering over disseminated, certified batches."""

from __future__ import annotations

from repro.net.message import Message
from repro.protocols.hotstuff.messages import HsChainResponse, HsNewView, HsProposal, HsVote
from repro.protocols.hotstuff.replica import HotStuffReplica


class NarwhalHsReplica(HotStuffReplica):
    """Emulated Narwhal-HS: HotStuff plus a size table and a name.

    Ordering is chained HotStuff; the dissemination layer is modelled by its
    cost profile (as in the paper's own emulation): every replication message
    carries a client batch plus 2f + 1 digital signatures (batches travel on
    every replica's messages, not only the leader's).  It is bandwidth-hungry
    by its size table; its compute cost exists only in ``analysis.model``.
    """

    protocol_name = "narwhal-hs"

    def _size_of(self, message: Message) -> int:
        """Every replication message carries a batch and 2f + 1 signatures."""
        certified_batch = self.size_model.batch_payload_bytes() + self.size_model.certificate_bytes(
            2 * self.config.f + 1
        )
        if isinstance(message, HsProposal):
            return self.size_model.proposal_bytes(len(message.transactions)) + certified_batch
        if isinstance(message, (HsVote, HsNewView)):
            return self.size_model.control_bytes(signatures=1) + certified_batch
        if isinstance(message, HsChainResponse):
            # Chain sync ships each synced node as a proposal does.
            return self.size_model.control_bytes() + sum(
                self.size_model.proposal_bytes(len(data.transactions)) + certified_batch
                for data in message.nodes
            )
        return self.size_model.control_bytes()


__all__ = ["NarwhalHsReplica"]
