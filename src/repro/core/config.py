"""Configuration of a SpotLess deployment.

A config holds parameters, not protocol variants: a replica always runs the
paper's rules (Rapid View Synchronization, constant-ε timeouts, assignment by
digest).  The counterfactuals the ablations compare against are replica
subclasses in :mod:`repro.bench.ablations`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.quorum import DeploymentConfig, QuorumParams


@dataclass(frozen=True)
class SpotLessConfig(DeploymentConfig):
    """Static parameters shared by every replica in a deployment.

    Attributes
    ----------
    num_instances:
        m, the number of concurrent chained consensus instances
        (1 ≤ m ≤ n).  The paper runs m = n unless stated otherwise.
    recording_timeout:
        Initial value of the Recording-state timer t_R (seconds).
    certifying_timeout:
        Initial value of the Certifying-state timer t_A (seconds).
    enable_fast_path:
        Geo-scale optimisation (Section 6.1): a primary may broadcast its
        proposal optimistically before gathering 2f + 1 votes for the
        previous view, falling back to the slow path if Byzantine behaviour
        is detected.
    """

    num_instances: int = 0
    recording_timeout: float = 0.05
    certifying_timeout: float = 0.05
    enable_fast_path: bool = False

    quorum_rule = staticmethod(QuorumParams.spotless)

    def __post_init__(self) -> None:
        if not self.num_instances:
            object.__setattr__(self, "num_instances", self.num_replicas)
        super().__post_init__()

    def primary_of(self, instance: int, view: int) -> int:
        """Replica id of the primary of instance ``instance`` in ``view``.

        Section 4.1: ``id(P_{i,v}) = (i + v) mod n``.
        """
        return (instance + view) % self.num_replicas


__all__ = ["SpotLessConfig"]
