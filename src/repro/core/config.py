"""Configuration of a SpotLess deployment."""

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
    view_sync_mode:
        ``"rvs"`` (Rapid View Synchronization: the f + 1 higher-view skip and
        Υ retransmissions) or ``"gst"`` — a HotStuff-style pacemaker that
        only advances views through timer expiry, used by the RVS ablation.
    timeout_policy:
        ``"adaptive"`` (the constant-ε rule of Section 3.5) or
        ``"exponential"`` (classic doubling back-off), used by the timeout
        ablation that explains the Figure 12 stability difference.
    assignment_policy:
        ``"digest"`` (the paper's request-to-instance assignment by digest,
        Section 5) or ``"client"`` (RCC-style static client-to-instance
        binding), used by the load-balance ablation.
    """

    num_instances: int = 0
    recording_timeout: float = 0.05
    certifying_timeout: float = 0.05
    enable_fast_path: bool = False
    view_sync_mode: str = "rvs"
    timeout_policy: str = "adaptive"
    assignment_policy: str = "digest"

    quorum_rule = staticmethod(QuorumParams.spotless)
    VIEW_SYNC_MODES = ("rvs", "gst")
    TIMEOUT_POLICIES = ("adaptive", "exponential")
    ASSIGNMENT_POLICIES = ("digest", "client")

    def __post_init__(self) -> None:
        if not self.num_instances:
            object.__setattr__(self, "num_instances", self.num_replicas)
        super().__post_init__()
        if self.view_sync_mode not in self.VIEW_SYNC_MODES:
            raise ValueError(f"view_sync_mode must be one of {self.VIEW_SYNC_MODES}")
        if self.timeout_policy not in self.TIMEOUT_POLICIES:
            raise ValueError(f"timeout_policy must be one of {self.TIMEOUT_POLICIES}")
        if self.assignment_policy not in self.ASSIGNMENT_POLICIES:
            raise ValueError(f"assignment_policy must be one of {self.ASSIGNMENT_POLICIES}")

    def primary_of(self, instance: int, view: int) -> int:
        """Replica id of the primary of instance ``instance`` in ``view``.

        Section 4.1: ``id(P_{i,v}) = (i + v) mod n``.
        """
        return (instance + view) % self.num_replicas


__all__ = ["SpotLessConfig"]
