"""Chained HotStuff (Yin et al., PODC 2019).

The pipelined variant evaluated by the paper: one proposal per view, a
rotating leader, votes sent to the next leader, quorum certificates emulated
as lists of n − f signatures (the paper's implementation does the same
because true threshold signatures were too slow), and the three-chain commit
rule.  A simple timeout pacemaker provides view synchronisation.
"""

from repro.protocols.hotstuff.messages import HsNewView, HsProposal, HsVote
from repro.protocols.hotstuff.replica import HotStuffReplica

__all__ = ["HotStuffReplica", "HsNewView", "HsProposal", "HsVote"]
