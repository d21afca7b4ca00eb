"""SpotLess: the paper's primary contribution.

The package is organised around the structure of Section 3 and 4:

* :mod:`repro.core.messages` — Propose, Sync, Ask and Inform messages,
  claims and the CP (conditionally-prepared) sets they carry.
* :mod:`repro.core.chain` — proposals, the chained proposal store, and the
  ``precedes`` / ``depth`` / conflict relations of Definition 3.3.
* :mod:`repro.core.instance` — one chained consensus instance: the
  normal-case replication protocol (Figure 3), the acceptance rules A1–A3
  and extendability rules E1–E2, the three per-view states of Rapid View
  Synchronization (Figure 4), and the Ask-recovery path.
* :mod:`repro.core.timeouts` — the adaptive timeout policy of Section 3.5.
* :mod:`repro.core.node` — the concurrent consensus architecture of
  Section 4: m instances with rotated primaries, the total order over
  committed proposals, no-op filling, execution and client Informs.
* :mod:`repro.core.client` — the client protocol of Section 5.
"""

from repro.core.config import SpotLessConfig
from repro.core.messages import AskMessage, Claim, CpEntry, InformMessage, ProposeMessage, SyncMessage
from repro.core.chain import Proposal, ProposalStatus, ProposalStore, GENESIS_PROPOSAL_ID
from repro.core.timeouts import AdaptiveTimeout
from repro.core.instance import InstanceEnvironment, SpotLessInstance, ViewState
from repro.core.node import SpotLessReplica
from repro.core.client import SpotLessClient

__all__ = [
    "AdaptiveTimeout",
    "AskMessage",
    "Claim",
    "CpEntry",
    "GENESIS_PROPOSAL_ID",
    "InformMessage",
    "InstanceEnvironment",
    "Proposal",
    "ProposalStatus",
    "ProposalStore",
    "ProposeMessage",
    "SpotLessClient",
    "SpotLessConfig",
    "SpotLessInstance",
    "SpotLessReplica",
    "SyncMessage",
    "ViewState",
]
