"""Configuration of a SpotLess deployment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.runtime.quorum import QuorumParams


@dataclass(frozen=True)
class SpotLessConfig:
    """Static parameters shared by every replica in a deployment.

    Attributes
    ----------
    num_replicas:
        n, the number of replicas.  Must satisfy n > 3f.
    num_instances:
        m, the number of concurrent chained consensus instances
        (1 ≤ m ≤ n).  The paper runs m = n unless stated otherwise.
    batch_size:
        Client transactions grouped into one proposal (default 100).
    recording_timeout:
        Initial value of the Recording-state timer t_R (seconds).
    certifying_timeout:
        Initial value of the Certifying-state timer t_A (seconds).
    timeout_increment:
        The constant ε added to a timer after consecutive timeouts
        (Section 3.5's moderate adjustment, instead of exponential backoff).
    timeout_fast_fraction:
        If the awaited message arrives within this fraction of the timeout
        interval, the interval is halved.
    min_timeout:
        Lower bound on any adaptive timeout.
    enable_fast_path:
        Geo-scale optimisation (Section 6.1): a primary may broadcast its
        proposal optimistically before gathering 2f + 1 votes for the
        previous view, falling back to the slow path if Byzantine behaviour
        is detected.
    commit_rule:
        ``"three-view"`` (the paper's rule: a proposal commits after three
        consecutive-view descendants are conditionally prepared) or
        ``"two-view"`` — the weaker rule of Example 3.6, provided only so the
        ablation benchmarks can demonstrate that it admits conflicting
        commits.  Production deployments must use ``"three-view"``.
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
    checkpoint_interval:
        Checkpoint interval K of the recovery subsystem: the execution
        frontier is checkpointed (and per-view protocol state garbage
        collected) every K executed views.  0 disables checkpointing and
        state transfer.
    """

    num_replicas: int
    num_instances: int = 0
    batch_size: int = 100
    recording_timeout: float = 0.05
    certifying_timeout: float = 0.05
    timeout_increment: float = 0.01
    timeout_fast_fraction: float = 0.5
    min_timeout: float = 0.001
    enable_fast_path: bool = False
    commit_rule: str = "three-view"
    view_sync_mode: str = "rvs"
    timeout_policy: str = "adaptive"
    assignment_policy: str = "digest"
    checkpoint_interval: int = 16

    COMMIT_RULES = ("three-view", "two-view")
    VIEW_SYNC_MODES = ("rvs", "gst")
    TIMEOUT_POLICIES = ("adaptive", "exponential")
    ASSIGNMENT_POLICIES = ("digest", "client")

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ValueError("SpotLess needs at least n = 4 replicas (n > 3f with f >= 1)")
        instances = self.num_instances or self.num_replicas
        if not 1 <= instances <= self.num_replicas:
            raise ValueError("num_instances must satisfy 1 <= m <= n")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.commit_rule not in self.COMMIT_RULES:
            raise ValueError(f"commit_rule must be one of {self.COMMIT_RULES}")
        if self.view_sync_mode not in self.VIEW_SYNC_MODES:
            raise ValueError(f"view_sync_mode must be one of {self.VIEW_SYNC_MODES}")
        if self.timeout_policy not in self.TIMEOUT_POLICIES:
            raise ValueError(f"timeout_policy must be one of {self.TIMEOUT_POLICIES}")
        if self.assignment_policy not in self.ASSIGNMENT_POLICIES:
            raise ValueError(f"assignment_policy must be one of {self.ASSIGNMENT_POLICIES}")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative (0 disables)")
        object.__setattr__(self, "num_instances", instances)
        object.__setattr__(self, "_quorum_params", QuorumParams.spotless(self.num_replicas))

    @property
    def n(self) -> int:
        """Number of replicas."""
        return self._quorum_params.n

    @property
    def f(self) -> int:
        """Maximum number of faulty replicas tolerated: ⌊(n − 1) / 3⌋."""
        return self._quorum_params.f

    @property
    def quorum(self) -> int:
        """The n − f quorum used for conditional prepares and certificates."""
        return self._quorum_params.quorum

    @property
    def weak_quorum(self) -> int:
        """The f + 1 threshold guaranteeing at least one non-faulty replica."""
        return self._quorum_params.weak_quorum

    def primary_of(self, instance: int, view: int) -> int:
        """Replica id of the primary of instance ``instance`` in ``view``.

        Section 4.1: ``id(P_{i,v}) = (i + v) mod n``.
        """
        return (instance + view) % self.num_replicas

    def replica_ids(self) -> range:
        """All replica identifiers, 0 .. n − 1."""
        return range(self.num_replicas)

    def with_instances(self, num_instances: int) -> "SpotLessConfig":
        """Copy of this configuration with a different instance count."""
        return replace(self, num_instances=num_instances)


__all__ = ["SpotLessConfig"]
