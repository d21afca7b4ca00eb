"""Standalone PBFT replica for the simulator."""

from __future__ import annotations

from repro.protocols.pbft.core import PbftInstanceCore
from repro.protocols.rcc.replica import RccReplica


class PbftReplica(RccReplica):
    """The m-instance PBFT host at m = 1, with no rule changed."""

    protocol_name = "pbft"

    @property
    def core(self) -> PbftInstanceCore:
        """The single consensus instance."""
        return self.cores[0]

    @property
    def view(self) -> int:
        """Current PBFT view."""
        return self.cores[0].view


__all__ = ["PbftReplica"]
