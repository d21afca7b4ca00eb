"""Standalone PBFT replica for the simulator."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.protocols.pbft.core import PbftInstanceCore
from repro.protocols.rcc.replica import RccReplica


class PbftReplica(RccReplica):
    """The m-instance PBFT host at m = 1, except that an idle primary proposes nothing."""

    protocol_name = "pbft"

    def _next_instance_batch(self, instance_id: int) -> Optional[Tuple[bytes, ...]]:
        return self.mempool.take_batch(self.config.batch_size, shard=instance_id)

    @property
    def core(self) -> PbftInstanceCore:
        """The single consensus instance."""
        return self.cores[0]

    @property
    def view(self) -> int:
        """Current PBFT view."""
        return self.cores[0].view


__all__ = ["PbftReplica"]
