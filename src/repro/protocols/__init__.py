"""Baseline consensus protocols the paper compares against.

* :mod:`repro.protocols.pbft` — Practical Byzantine Fault Tolerance with
  MAC-authenticated messages, out-of-order processing and view changes.
* :mod:`repro.protocols.rcc` — RCC: concurrent PBFT instances under one
  global order (the paper's complaints and back-off are not simulated).
* :mod:`repro.protocols.hotstuff` — chained (pipelined) HotStuff with a
  rotating leader and emulated threshold signatures.
* :mod:`repro.protocols.narwhal` — Narwhal-HS: HotStuff ordering over
  pre-disseminated batches with per-block signature verification.

All replicas share the infrastructure in :mod:`repro.protocols.common`
(request pools, batching, execution, client Informs), so the protocols differ
only in their consensus logic — exactly the comparison the paper makes.
"""

from repro.protocols.common import BftConfig, BftReplicaBase
from repro.protocols.pbft import PbftReplica
from repro.protocols.rcc import RccReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.narwhal import NarwhalHsReplica

__all__ = [
    "BftConfig",
    "BftReplicaBase",
    "HotStuffReplica",
    "NarwhalHsReplica",
    "PbftReplica",
    "RccReplica",
]
