"""Ablation experiments for the design choices EXPERIMENTS.md ("Ablations") lists.

The paper motivates five design decisions that are not covered by its
headline figures:

* the **three-consecutive-view commit rule** (Example 3.6 shows that a
  two-view rule admits conflicting commits);
* **Rapid View Synchronization** instead of a GST-style pacemaker;
* the **constant-ε adaptive timeout** instead of exponential back-off
  (the mechanism behind the Figure 12 stability contrast with RCC);
* the **digest-based request-to-instance assignment** instead of RCC's
  static client-to-primary binding;
* the **geo fast path** (Section 6.1), on against off.

A SpotLess replica runs only the paper's rules: each counterfactual is a
subclass here, beside the experiment that measures it, overriding one method.
The fast path is the paper's own and stays a ``SpotLessConfig`` field.

Each function in this module runs the two variants of one decision and
returns rows suitable for :func:`repro.analysis.report.format_table`; the
``benchmarks/test_ablation_design_choices.py`` targets print them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chain import Proposal, ProposalStatus, ProposalStore
from repro.core.config import SpotLessConfig
from repro.core.instance import InstanceEnvironment, SpotLessInstance
from repro.core.messages import ProposeMessage
from repro.core.node import SpotLessReplica
from repro.bench.cluster import SimulatedCluster
from repro.bench.experiments import Experiment
from repro.faults.injector import FaultEvent, FaultInjector
from repro.sim.network import NetworkConfig, RegionTopology
from repro.workload.requests import Operation, Transaction


# ----------------------------------------------------------------------
# commit rule: three consecutive views versus two (Example 3.6)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommitRuleOutcome:
    """Result of the scripted Example 3.6 scenario for one commit rule."""

    commit_rule: str
    commits_replica_a: Tuple[bytes, ...]
    commits_replica_b: Tuple[bytes, ...]
    conflicting: bool


class TwoViewStore(ProposalStore):
    """Example 3.6's unsafe two-view rule: a conditionally prepared proposal
    also commits its parent when their views are consecutive, and no commit is
    checked against the committed chain.  Only this ablation builds one."""

    def _apply_prepare_consequences(self, proposal: Proposal) -> List[Proposal]:
        newly = super()._apply_prepare_consequences(proposal)
        parent = self.get(proposal.parent_digest)
        if parent is None or parent.is_genesis or proposal.view != parent.view + 1:
            return newly
        return newly + self._commit_chain(parent)

    def _commit_chain(self, proposal: Proposal) -> List[Proposal]:
        chain: List[Proposal] = []
        node = proposal
        while node is not None and node.status < ProposalStatus.COMMITTED and node not in chain:
            chain.insert(0, node)
            node = self.parent_of(node)
        for node in chain:
            if node.status < ProposalStatus.CONDITIONALLY_PREPARED:
                self._note_prepared(node)
            node.status = ProposalStatus.COMMITTED
        self.committed += chain
        return chain


def _scripted_branch(store: ProposalStore, views: Sequence[int], tag: str) -> List[bytes]:
    """Record and conditionally prepare a chain of proposals on ``store``.

    The chain starts at the genesis proposal and adds one proposal per view
    in ``views``; the transaction it carries embeds ``tag`` so branches built
    with different tags are guaranteed to conflict.
    """
    parent_digest = store.genesis.digest
    parent_view = store.genesis.view
    digests: List[bytes] = []
    for view in views:
        message = ProposeMessage(
            instance=store.instance,
            view=view,
            transactions=(
                Transaction(
                    client_id=0, sequence=0, operations=(Operation.write(0, f"{tag}:{view}".encode()),)
                ),
            ),
            parent_digest=parent_digest,
            parent_view=parent_view,
        )
        proposal = store.record_message(message)
        store.mark_conditionally_prepared(proposal)
        digests.append(proposal.digest)
        parent_digest = proposal.digest
        parent_view = view
    return digests


def example_3_6_conflict(commit_rule: str) -> CommitRuleOutcome:
    """Replay the divergence scenario of Example 3.6 under ``commit_rule``.

    A Byzantine primary and selective message delivery leave two honest
    replicas with conditionally prepared chains on *different* branches of
    the proposal tree, with non-consecutive view gaps below the tip:

    * replica A prepares ``P0 ← P(v1) ← P(v4) ← P(v5)``;
    * replica B prepares ``P0 ← P(v2) ← P(v6) ← P(v7)``.

    Under the two-view rule each replica commits the branch below its
    consecutive tip pair, so A commits the v1 proposal and B commits the
    conflicting v2 proposal.  Under the paper's three-view rule neither
    branch has three consecutive views, so nothing commits and safety holds.
    """
    store_type = TwoViewStore if commit_rule == "two-view" else ProposalStore
    store_a = store_type(instance=0)
    store_b = store_type(instance=0)
    _scripted_branch(store_a, (1, 4, 5), tag="branch-a")
    _scripted_branch(store_b, (2, 6, 7), tag="branch-b")

    commits_a = tuple(p.digest for p in store_a.committed)
    commits_b = tuple(p.digest for p in store_b.committed)
    # The two branches only share the genesis proposal, so any pair of
    # non-genesis commits across the two replicas is a conflicting commit.
    conflicting = bool(commits_a) and bool(commits_b) and not set(commits_a) & set(commits_b)
    return CommitRuleOutcome(
        commit_rule=commit_rule,
        commits_replica_a=commits_a,
        commits_replica_b=commits_b,
        conflicting=conflicting,
    )


def commit_rule_safety() -> List[Dict[str, object]]:
    """Rows comparing the two-view and three-view commit rules."""
    rows = []
    for rule in ("three-view", "two-view"):
        outcome = example_3_6_conflict(rule)
        rows.append(
            {
                "commit_rule": rule,
                "commits_at_A": len(outcome.commits_replica_a),
                "commits_at_B": len(outcome.commits_replica_b),
                "conflicting_commits": outcome.conflicting,
                "safe": not outcome.conflicting,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Rapid View Synchronization versus a GST-style pacemaker
# ----------------------------------------------------------------------


class GstPacemakerInstance(SpotLessInstance):
    """A GST-style pacemaker: views advance only through this replica's own
    quorum progress and timer expiry, never by the f + 1 higher-view skip."""

    def _maybe_skip_views(self) -> None:
        return


class GstPacemakerReplica(SpotLessReplica):
    """A SpotLess replica whose instances run the GST-style pacemaker."""

    instance_class = GstPacemakerInstance


#: ``view_sync_mode`` -> the replica class that runs it.
VIEW_SYNC_REPLICAS = {"rvs": SpotLessReplica, "gst": GstPacemakerReplica}


def _max_view(cluster: SimulatedCluster, replica_id: int) -> int:
    """Highest view any instance of ``replica_id`` has reached."""
    replica = cluster.replicas[replica_id]
    return max(instance.current_view for instance in replica.instances.values())


def view_synchronization_recovery(
    view_sync_modes: Sequence[str] = ("rvs", "gst"),
    num_replicas: int = 4,
    partition_duration: float = 0.4,
    recovery_window: float = 1.0,
) -> List[Dict[str, object]]:
    """Measure how quickly a partitioned replica catches up after healing.

    One replica is cut off from the rest of the cluster for
    ``partition_duration`` seconds.  After the partition heals the cluster
    runs for ``recovery_window`` more seconds and the experiment reports the
    view lag of the previously isolated replica: with Rapid View
    Synchronization the replica skips ahead on f + 1 higher-view Syncs and
    asks for retransmissions, whereas the GST-style pacemaker has to walk
    every missed view on its own timers.
    """
    rows = []
    for mode in view_sync_modes:
        config = SpotLessConfig(num_replicas=num_replicas, num_instances=1)
        cluster = SimulatedCluster.build(
            VIEW_SYNC_REPLICAS[mode], config, clients=2, outstanding_per_client=4
        )
        injector = FaultInjector(cluster)
        isolated = num_replicas - 1
        others = tuple(r for r in range(num_replicas) if r != isolated)
        injector.schedule(FaultEvent("partition", 0.1, 0.1 + partition_duration, groups=(others, (isolated,))))
        cluster.start()
        cluster.simulator.run_for(0.1 + partition_duration)
        lag_at_heal = _max_view(cluster, others[0]) - _max_view(cluster, isolated)
        cluster.simulator.run_for(recovery_window)
        lag_after_recovery = _max_view(cluster, others[0]) - _max_view(cluster, isolated)
        rows.append(
            {
                "view_sync_mode": mode,
                "view_lag_at_heal": lag_at_heal,
                "view_lag_after_recovery": lag_after_recovery,
                "caught_up": lag_after_recovery <= 1,
            }
        )
    return rows


# ----------------------------------------------------------------------
# adaptive constant-ε timeouts versus exponential back-off
# ----------------------------------------------------------------------


#: Growth factor and upper bound (seconds) of :class:`ExponentialBackoff`.
BACKOFF_FACTOR = 2.0
BACKOFF_MAXIMUM = 60.0


class ExponentialBackoff:
    """Classic exponential back-off, the timer the constant-ε rule is measured
    against (the PBFT/RCC baselines use fixed timeouts)."""

    def __init__(self, initial: float) -> None:
        if initial <= 0:
            raise ValueError("initial timeout must be positive")
        self.initial = initial
        self._interval = initial

    @property
    def interval(self) -> float:
        """Current timeout interval in seconds."""
        return self._interval

    def on_timeout(self) -> float:
        """Multiply the interval by ``BACKOFF_FACTOR`` after an expiry."""
        self._interval = min(BACKOFF_MAXIMUM, self._interval * BACKOFF_FACTOR)
        return self._interval

    def on_progress(self, waited: float) -> float:
        """Reset the interval once progress is observed."""
        self._interval = self.initial
        return self._interval


class BackoffInstance(SpotLessInstance):
    """A SpotLess instance whose two view timers back off exponentially."""

    def __init__(
        self, instance_id: int, config: SpotLessConfig, environment: InstanceEnvironment
    ) -> None:
        super().__init__(instance_id, config, environment)
        self._recording_timeout = ExponentialBackoff(config.recording_timeout)
        self._certifying_timeout = ExponentialBackoff(config.certifying_timeout)


class BackoffReplica(SpotLessReplica):
    """A SpotLess replica whose instances back off exponentially."""

    instance_class = BackoffInstance


#: ``timeout_policy`` -> the replica class that runs it.
TIMEOUT_REPLICAS = {"adaptive": SpotLessReplica, "exponential": BackoffReplica}


def timeout_policy_stability(
    policies: Sequence[str] = ("adaptive", "exponential"),
    num_replicas: int = 4,
    crash_at: float = 0.3,
    duration: float = 1.5,
    bucket: float = 0.3,
) -> List[Dict[str, object]]:
    """Throughput and its stability after a crash under the two timeout policies.

    A replica crashes at ``crash_at``; the run continues and confirmed
    transactions are counted per ``bucket``-second window.  The windows that
    start after the crash's own window are the post-failure windows; each row
    reports all confirmed transactions, their fewest and most per window, the
    spread (most − fewest) and ``post_failure_spread_share``, the spread over
    their mean, which puts each policy's spread on its own rate.  The
    adaptive constant-ε policy keeps the timeout close to the real message
    delay; exponential back-off overshoots after consecutive timeouts, so it
    confirms fewer per window.  At the defaults both end a crashed primary's
    views on the failure claims and keep their instances in step, so both
    spread by a few percent of their rate, and the share does not separate
    them; the confirmed counts do.
    """
    rows = []
    for policy in policies:
        config = SpotLessConfig(
            num_replicas=num_replicas,
            num_instances=num_replicas,
            recording_timeout=0.02,
            certifying_timeout=0.02,
        )
        cluster = SimulatedCluster.build(
            TIMEOUT_REPLICAS[policy], config, clients=4, outstanding_per_client=6
        )
        injector = FaultInjector(cluster)
        injector.schedule(FaultEvent("crash", crash_at, replicas=(num_replicas - 1,)))
        cluster.start()
        elapsed = 0.0
        window_counts: List[int] = []
        confirmed_before = 0
        while elapsed < duration:
            cluster.simulator.run_for(bucket)
            elapsed += bucket
            confirmed = sum(client.confirmed_transactions for client in cluster.clients)
            window_counts.append(confirmed - confirmed_before)
            confirmed_before = confirmed
        post_failure = [
            count for index, count in enumerate(window_counts) if (index + 1) * bucket > crash_at + bucket
        ]
        spread = (max(post_failure) - min(post_failure)) if post_failure else 0
        mean = sum(post_failure) / len(post_failure) if post_failure else 0.0
        rows.append(
            {
                "timeout_policy": policy,
                "confirmed_total": confirmed_before,
                "post_failure_windows": len(post_failure),
                "post_failure_min": min(post_failure) if post_failure else 0,
                "post_failure_max": max(post_failure) if post_failure else 0,
                "post_failure_spread": spread,
                "post_failure_spread_share": spread / mean if mean else 0.0,
            }
        )
    return rows


# ----------------------------------------------------------------------
# digest-based assignment versus client-to-instance binding
# ----------------------------------------------------------------------


class ClientBoundReplica(SpotLessReplica):
    """RCC-style assignment: every client is bound to one instance."""

    def _assign_shard(self, transaction: Transaction) -> int:
        return transaction.client_id % self.config.num_instances


#: ``assignment_policy`` -> the replica class that runs it.
ASSIGNMENT_REPLICAS = {"digest": SpotLessReplica, "client": ClientBoundReplica}


def _committed_client_transactions(replica: SpotLessReplica) -> Dict[int, int]:
    """Committed client transactions per instance at ``replica``: those its
    committed proposals carry.  A no-op proposal carries none, so each count
    is useful work."""
    return {
        instance_id: sum(
            len(proposal.message.transactions)
            for proposal in instance.store.committed
            if proposal.message is not None
        )
        for instance_id, instance in replica.instances.items()
    }


def assignment_load_balance(
    policies: Sequence[str] = ("digest", "client"),
    num_replicas: int = 4,
    clients: int = 2,
    duration: float = 0.8,
) -> List[Dict[str, object]]:
    """Load balance across instances under the two assignment policies.

    With few clients the RCC-style client binding leaves some instances
    idle (they only ever propose no-ops) while others queue every request;
    digest assignment spreads requests from the same client over all
    instances.  The imbalance metric is the ratio between the most and least
    loaded instances' proposed batch counts at replica 0.
    """
    rows = []
    for policy in policies:
        config = SpotLessConfig(
            num_replicas=num_replicas,
            num_instances=num_replicas,
            batch_size=1,
        )
        cluster = SimulatedCluster.build(
            ASSIGNMENT_REPLICAS[policy], config, clients=clients, outstanding_per_client=6
        )
        cluster.run(duration=duration)
        replica = cluster.replicas[0]
        per_instance = _committed_client_transactions(replica)
        loads = sorted(per_instance.values())
        busiest = loads[-1] if loads else 0
        idlest = loads[0] if loads else 0
        rows.append(
            {
                "assignment_policy": policy,
                "instances": config.num_instances,
                "least_loaded_commits": idlest,
                "most_loaded_commits": busiest,
                "imbalance_ratio": round(busiest / idlest, 2) if idlest else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# geo fast path (Section 6.1 optimisation)
# ----------------------------------------------------------------------


def fast_path_latency(
    num_replicas: int = 4,
    regions: int = 2,
    duration: float = 2.0,
) -> List[Dict[str, object]]:
    """Client latency with and without the geo fast path.

    Uses a two-region topology (wide-area links dominate the view duration)
    so the earlier optimistic proposal broadcast of the fast path shows up
    as a latency difference.  Timeouts are set well above the wide-area
    round trip, as the paper does for its geo-scale runs, so both variants
    run without spurious view changes and the comparison isolates the
    optimisation itself.
    """
    rows = []
    topology = RegionTopology(regions=regions)
    for fast_path in (False, True):
        config = SpotLessConfig(
            num_replicas=num_replicas,
            num_instances=num_replicas,
            batch_size=1,
            enable_fast_path=fast_path,
            recording_timeout=0.5,
            certifying_timeout=0.5,
        )
        cluster = SimulatedCluster.spotless(
            config,
            clients=2,
            outstanding_per_client=4,
            network_config=NetworkConfig(topology=topology),
        )
        result = cluster.run(duration=duration)
        fast_proposals = sum(
            instance.fast_path_proposals
            for replica in cluster.replicas
            for instance in replica.instances.values()
        )
        rows.append(
            {
                "fast_path": fast_path,
                "mean_latency_s": round(result.mean_latency, 4),
                "throughput_txn_s": round(result.throughput, 1),
                "fast_path_proposals": fast_proposals,
            }
        )
    return rows


# ----------------------------------------------------------------------
# the ablation registry: the one table behind `repro list`, `repro ablation`
# and the ``ablation`` dispatch task
# ----------------------------------------------------------------------

#: CLI ablation name -> experiment (EXPERIMENTS.md, "Ablations").
ABLATIONS: Dict[str, Experiment] = {
    "commit-rule": Experiment(
        commit_rule_safety,
        ("commit_rule", "commits_at_A", "commits_at_B", "conflicting_commits", "safe"),
        "Example 3.6: the three-consecutive-view commit rule versus a two-view rule",
    ),
    "view-sync": Experiment(
        view_synchronization_recovery,
        ("view_sync_mode", "view_lag_at_heal", "view_lag_after_recovery", "caught_up"),
        "Rapid View Synchronization versus a GST-style pacemaker",
    ),
    "timeouts": Experiment(
        timeout_policy_stability,
        (
            "timeout_policy",
            "confirmed_total",
            "post_failure_min",
            "post_failure_max",
            "post_failure_spread",
            "post_failure_spread_share",
        ),
        "Constant-ε adaptive timeouts versus exponential back-off (Figure 12 mechanism)",
    ),
    "assignment": Experiment(
        assignment_load_balance,
        (
            "assignment_policy",
            "instances",
            "least_loaded_commits",
            "most_loaded_commits",
            "imbalance_ratio",
        ),
        "Digest-based request assignment versus client-to-instance binding",
    ),
    "fast-path": Experiment(
        fast_path_latency,
        ("fast_path", "mean_latency_s", "throughput_txn_s", "fast_path_proposals"),
        "Geo fast path (Section 6.1 optimisation)",
    ),
}


__all__ = [
    "ABLATIONS",
    "CommitRuleOutcome",
    "assignment_load_balance",
    "commit_rule_safety",
    "example_3_6_conflict",
    "fast_path_latency",
    "timeout_policy_stability",
    "view_synchronization_recovery",
]
