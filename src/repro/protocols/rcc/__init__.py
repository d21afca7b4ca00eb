"""RCC: Resilient Concurrent Consensus (Gupta et al., ICDE 2021).

RCC turns PBFT into a concurrent consensus protocol by running one PBFT
instance per replica, each with its own primary.  In the paper faulty
primaries are detected through complaints, and after f + 1 complaints the
instance is shut down for an exponentially increasing number of rounds — the
back-off behind the throughput dips of Figure 12.  This replica implements
neither: a stalled instance is recovered by its own PBFT progress deadline
and view change; the back-off exists only as the analytical model's penalty.
"""

from repro.protocols.rcc.replica import RccReplica

__all__ = ["RccReplica"]
