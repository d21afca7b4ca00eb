"""Quorum arithmetic shared by SpotLess and the baseline protocols.

Every protocol in the fabric derives its fault threshold from the replica
count the same way (f = ⌊(n − 1)/3⌋), but the agreement quorum differs:
SpotLess certifies with n − f matching votes while the PBFT-family baselines
use the classic 2f + 1.  The two coincide when n = 3f + 1 and diverge
otherwise, so the rule is an explicit part of the parameters rather than a
property re-derived in every config class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(frozen=True)
class QuorumParams:
    """Replica-count-derived thresholds of one deployment.

    Attributes
    ----------
    n:
        Number of replicas.
    f:
        Tolerated Byzantine faults: ⌊(n − 1)/3⌋.
    quorum:
        Agreement quorum (n − f for SpotLess, 2f + 1 for the baselines).
    weak_quorum:
        f + 1, guaranteeing at least one non-faulty member.
    """

    n: int
    f: int
    quorum: int
    weak_quorum: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("BFT requires at least n = 4 replicas (n > 3f with f >= 1)")
        if not self.weak_quorum <= self.quorum <= self.n:
            raise ValueError("quorum thresholds must satisfy f + 1 <= quorum <= n")

    @staticmethod
    def spotless(num_replicas: int) -> "QuorumParams":
        """SpotLess thresholds: the n − f certificate quorum."""
        f = (num_replicas - 1) // 3
        return QuorumParams(n=num_replicas, f=f, quorum=num_replicas - f, weak_quorum=f + 1)

    @staticmethod
    def bft(num_replicas: int) -> "QuorumParams":
        """Classic PBFT-family thresholds: the 2f + 1 agreement quorum."""
        f = (num_replicas - 1) // 3
        return QuorumParams(n=num_replicas, f=f, quorum=2 * f + 1, weak_quorum=f + 1)


@dataclass(frozen=True)
class DeploymentConfig:
    """What every deployment fixes, whichever protocol it runs: n, m instances
    (1 ≤ m ≤ n), the batch size, the checkpoint interval K (0 disables
    checkpointing and state transfer), the catch-up / progress timeout, and the
    thresholds ``quorum_rule`` gives (the classic rule unless a family names its own)."""

    num_replicas: int
    num_instances: int = 1
    batch_size: int = 100
    checkpoint_interval: int = 16
    request_timeout: float = 0.25
    n: int = field(init=False)
    f: int = field(init=False)
    quorum: int = field(init=False)
    weak_quorum: int = field(init=False)

    quorum_rule = staticmethod(QuorumParams.bft)

    def __post_init__(self) -> None:
        thresholds = self.quorum_rule(self.num_replicas)
        for name in ("n", "f", "quorum", "weak_quorum"):
            object.__setattr__(self, name, getattr(thresholds, name))
        if not 1 <= self.num_instances <= self.num_replicas:
            raise ValueError("num_instances must satisfy 1 <= m <= n")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative (0 disables)")

    def replica_ids(self) -> range:
        """All replica identifiers, 0 .. n − 1."""
        return range(self.num_replicas)


def view_reached_by(views: Iterable[int], above: int, weak_quorum: int) -> Optional[int]:
    """The highest view above ``above`` that ``weak_quorum`` = f + 1 of
    ``views`` (each replica's highest view seen) reach, or None.  One of those
    f + 1 replicas is non-faulty, so a lagging replica may join the view: the
    rule of SpotLess's view skip (Figure 4) and the PBFT family's view adoption.
    """
    higher = sorted((view for view in views if view > above), reverse=True)
    return higher[weak_quorum - 1] if len(higher) >= weak_quorum else None


__all__ = ["DeploymentConfig", "QuorumParams", "view_reached_by"]
