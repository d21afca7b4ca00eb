"""Tests for the design-choice ablation experiments (repro.bench.ablations)."""

import pytest

from repro.bench import ablations
from repro.core.chain import GENESIS_PROPOSAL_ID, GENESIS_VIEW
from repro.core.messages import ProposeMessage
from tests.transactions import txn


# ---------------------------------------------------------------------------
# commit rule (Example 3.6)
# ---------------------------------------------------------------------------


def _branch_digests(views, tag):
    """Digests of Example 3.6's scripted branch: one proposal per view, each
    extending the previous one, the first extending genesis."""
    digests = []
    parent_digest, parent_view = GENESIS_PROPOSAL_ID, GENESIS_VIEW
    for view in views:
        message = ProposeMessage(
            instance=0,
            view=view,
            transactions=(txn(f"{tag}:{view}".encode()),),
            parent_digest=parent_digest,
            parent_view=parent_view,
        )
        digests.append(message.digest())
        parent_digest, parent_view = digests[-1], view
    return digests


def test_example_3_6_two_view_rule_commits_conflicting_proposals():
    outcome = ablations.example_3_6_conflict("two-view")
    assert outcome.conflicting
    assert outcome.commits_replica_a and outcome.commits_replica_b
    assert not set(outcome.commits_replica_a) & set(outcome.commits_replica_b)


def test_example_3_6_two_view_rule_commits_the_two_proposals_below_each_tip_pair():
    """A's branch v1 ← v4 ← v5 commits v1 then v4 once v5 is prepared; B's
    branch v2 ← v6 ← v7 commits v2 then v6."""
    v1, v4, _v5 = _branch_digests((1, 4, 5), "branch-a")
    v2, v6, _v7 = _branch_digests((2, 6, 7), "branch-b")
    outcome = ablations.example_3_6_conflict("two-view")
    assert outcome.commits_replica_a == (v1, v4)
    assert outcome.commits_replica_b == (v2, v6)


def test_example_3_6_three_view_rule_commits_nothing_on_either_branch():
    outcome = ablations.example_3_6_conflict("three-view")
    assert not outcome.conflicting
    assert outcome.commits_replica_a == ()
    assert outcome.commits_replica_b == ()


def test_commit_rule_safety_rows_flag_only_the_two_view_rule():
    rows = {row["commit_rule"]: row for row in ablations.commit_rule_safety()}
    assert rows["three-view"]["safe"] is True
    assert rows["two-view"]["safe"] is False
    assert rows["two-view"]["conflicting_commits"] is True


# ---------------------------------------------------------------------------
# Rapid View Synchronization versus a GST pacemaker
# ---------------------------------------------------------------------------


def test_rvs_catches_up_faster_than_the_gst_pacemaker():
    rows = {
        row["view_sync_mode"]: row
        for row in ablations.view_synchronization_recovery(
            partition_duration=0.3, recovery_window=0.6
        )
    }
    assert rows["rvs"]["view_lag_after_recovery"] <= rows["gst"]["view_lag_after_recovery"]
    assert rows["rvs"]["caught_up"]


def test_partition_creates_a_real_view_lag_before_recovery():
    rows = ablations.view_synchronization_recovery(
        view_sync_modes=("rvs",), partition_duration=0.3, recovery_window=0.4
    )
    assert rows[0]["view_lag_at_heal"] > 0


# ---------------------------------------------------------------------------
# timeout policy stability
# ---------------------------------------------------------------------------


def test_adaptive_timeouts_confirm_at_least_as_much_as_exponential_after_a_crash():
    rows = {
        row["timeout_policy"]: row
        for row in ablations.timeout_policy_stability(crash_at=0.2, duration=1.2, bucket=0.2)
    }
    assert rows["adaptive"]["confirmed_total"] >= rows["exponential"]["confirmed_total"]
    assert rows["adaptive"]["post_failure_min"] >= rows["exponential"]["post_failure_min"]


# ---------------------------------------------------------------------------
# assignment policy load balance
# ---------------------------------------------------------------------------


def test_client_binding_is_more_imbalanced_than_digest_assignment():
    rows = {
        row["assignment_policy"]: row
        for row in ablations.assignment_load_balance(duration=0.5)
    }
    assert rows["client"]["imbalance_ratio"] >= rows["digest"]["imbalance_ratio"]
    # With fewer clients than instances, client binding must leave at least
    # one instance without any useful work.
    assert rows["client"]["least_loaded_commits"] == 0
    assert rows["digest"]["least_loaded_commits"] > 0


# ---------------------------------------------------------------------------
# geo fast path
# ---------------------------------------------------------------------------


def test_fast_path_rows_report_optimistic_proposals_only_when_enabled():
    rows = {row["fast_path"]: row for row in ablations.fast_path_latency(duration=1.0)}
    assert rows[False]["fast_path_proposals"] == 0
    assert rows[True]["fast_path_proposals"] > 0
    # The optimisation must not destroy performance at simulator scale; the
    # paper only claims benefits at 128-replica geo scale (see EXPERIMENTS.md).
    assert rows[True]["throughput_txn_s"] >= 0.5 * rows[False]["throughput_txn_s"]
