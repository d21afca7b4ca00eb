"""Byzantine behaviour and fault injection.

The paper's failure experiments use non-responsive replicas (Figures 7(e,f),
8, 9, 10, 12) and four Byzantine attack scenarios A1-A4 (Figure 11).  The
injector applies each :class:`FaultEvent` to the simulated network, so any of
the implemented protocols can be subjected to the same faults.
"""

from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.attacks import (
    AttackScenario,
    DarknessAttack,
    EquivocationAttack,
    VoteWithholdingAttack,
    attack_by_name,
    conflicting_digest,
)

__all__ = [
    "AttackScenario",
    "DarknessAttack",
    "EquivocationAttack",
    "FaultEvent",
    "FaultInjector",
    "VoteWithholdingAttack",
    "attack_by_name",
    "conflicting_digest",
]
