"""Baseline consensus protocols the paper compares against.

* :mod:`repro.protocols.pbft` — Practical Byzantine Fault Tolerance with
  out-of-order processing and view changes; its replica is RCC's at m = 1.
* :mod:`repro.protocols.rcc` — RCC: concurrent PBFT instances under one
  global order (the paper's complaints and back-off are not simulated).
* :mod:`repro.protocols.hotstuff` — chained (pipelined) HotStuff with a
  rotating leader and emulated threshold signatures.
* :mod:`repro.protocols.narwhal` — Narwhal-HS: HotStuff ordering over
  pre-disseminated batches, modelled by a wire-size table.

All replicas subclass :class:`repro.runtime.replica.ReplicaRuntime` directly
(request pools, batching, execution, client Informs), so the protocols differ
only in their consensus logic — exactly the comparison the paper makes.
"""

# pbft before rcc: pbft.replica subclasses rcc.replica, which needs pbft.core.
from repro.protocols.common import BftConfig
from repro.protocols.pbft import PbftReplica
from repro.protocols.rcc import RccReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.narwhal import NarwhalHsReplica

__all__ = [
    "BftConfig",
    "HotStuffReplica",
    "NarwhalHsReplica",
    "PbftReplica",
    "RccReplica",
]
