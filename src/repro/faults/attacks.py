"""The paper's Byzantine attack scenarios (Section 6.3, Figure 11).

Each scenario is expressed as rules applied to the simulated network or to a
faulty replica's outgoing messages:

* **A1 — non-responsive**: the faulty replica stops sending and receiving.
  The injector applies it as a crash, so no rule here models it.
* **A2 — in the dark**: when the faulty replica is primary it withholds its
  proposal from f non-faulty victims.
* **A3 — equivocation**: the faulty replica sends conflicting votes — one
  claim to f non-faulty replicas and a different one to the rest — trying to
  cause divergence.
* **A4 — vote withholding**: the faulty replica refuses to vote for the
  proposals of non-faulty primaries, trying to make them look faulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Set

from repro.core.messages import Claim, ProposeMessage, SyncMessage
from repro.crypto.digest import digest_bytes
from repro.protocols.hotstuff.messages import HsProposal, HsVote
from repro.protocols.pbft.messages import PrepareMessage, PrePrepareMessage, CommitMessage


def conflicting_digest(digest: bytes) -> bytes:
    """Deterministic digest of a phantom value an equivocator claims instead.

    Deriving it from the honest digest keeps runs reproducible and guarantees
    the conflict: no honest replica ever proposes a batch with this digest.
    """
    return digest_bytes(("equivocation", digest))


@dataclass
class AttackScenario:
    """Base class: a drop rule, or (for equivocation) a rewrite rule."""

    attackers: Set[int] = field(default_factory=set)
    victims: Set[int] = field(default_factory=set)
    name: str = "none"

    def should_drop(self, sender: int, receiver: int, payload: object) -> bool:
        """Network-level drop decision for a message in flight."""
        return False

    def rewrite(self, sender: int, receiver: int, message: object) -> Optional[object]:
        """Network-level payload substitution (None keeps the payload).

        Only scenarios that equivocate override this; the injector installs
        the hook on the network exclusively when it is overridden.
        """
        return None

    @property
    def rewrites(self) -> bool:
        """True when this scenario substitutes payloads in flight."""
        return type(self).rewrite is not AttackScenario.rewrite


@dataclass
class DarknessAttack(AttackScenario):
    """A2: attackers acting as primary keep ``victims`` in the dark.

    Proposals (SpotLess Propose, PBFT PrePrepare, HotStuff proposals) from an
    attacker to a victim are dropped; all other traffic flows normally, so
    the attacker still looks alive.
    """

    name: str = "A2"

    def should_drop(self, sender: int, receiver: int, payload: object) -> bool:
        if sender not in self.attackers or receiver not in self.victims:
            return False
        return isinstance(payload, (ProposeMessage, PrePrepareMessage, HsProposal))


@dataclass
class EquivocationAttack(AttackScenario):
    """A3: attackers send conflicting votes to different halves of the replicas.

    Votes toward the ``victims`` group are substituted in flight with a vote
    for a phantom conflicting value (:func:`conflicting_digest`), while the
    rest of the replicas receive the honest vote — the attacker genuinely
    says two different things about the same view/slot.  Safety must hold
    regardless: the phantom value can gather at most f votes (one per
    attacker), which stays below every quorum, and the invariant oracle
    verifies no divergence occurs.
    """

    name: str = "A3"

    def rewrite(self, sender: int, receiver: int, message: object) -> Optional[object]:
        if sender not in self.attackers or receiver not in self.victims:
            return None
        if isinstance(message, SyncMessage) and not message.claim.is_failure:
            claim = Claim(view=message.claim.view, digest=conflicting_digest(message.claim.digest))
            return replace(message, claim=claim)
        if isinstance(message, (PrepareMessage, CommitMessage)):
            return replace(message, batch_digest=conflicting_digest(message.batch_digest))
        if isinstance(message, HsVote):
            return replace(message, node_digest=conflicting_digest(message.node_digest))
        return None


@dataclass
class VoteWithholdingAttack(AttackScenario):
    """A4: attackers refuse to vote for proposals of non-faulty primaries."""

    name: str = "A4"

    def should_drop(self, sender: int, receiver: int, payload: object) -> bool:
        if sender not in self.attackers:
            return False
        return isinstance(payload, (SyncMessage, PrepareMessage, CommitMessage, HsVote))


def attack_by_name(
    name: str,
    attackers: Iterable[int],
    victims: Optional[Iterable[int]] = None,
) -> AttackScenario:
    """Build an attack scenario from its paper label (A2-A4; A1 is a crash)."""
    attacker_set = set(attackers)
    victim_set = set(victims or ())
    scenarios = {
        "A2": DarknessAttack,
        "A3": EquivocationAttack,
        "A4": VoteWithholdingAttack,
    }
    key = name.upper()
    if key not in scenarios:
        raise ValueError(f"unknown attack scenario {name!r}")
    return scenarios[key](attackers=attacker_set, victims=victim_set, name=key)


__all__ = [
    "AttackScenario",
    "DarknessAttack",
    "EquivocationAttack",
    "VoteWithholdingAttack",
    "attack_by_name",
    "conflicting_digest",
]
