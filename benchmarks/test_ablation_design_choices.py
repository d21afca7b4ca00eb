"""Ablation benches for the design choices listed in EXPERIMENTS.md ("Ablations").

These do not correspond to a numbered figure; they quantify the design
decisions the paper argues for: the three-consecutive-view commit rule
(Example 3.6), Rapid View Synchronization versus a GST-style pacemaker, the
constant-ε timeout policy (vs exponential back-off), digest-based
request-to-instance assignment, and the Section 6.1 geo fast path.

The message-level ablations run small simulated clusters, so they use a
single benchmark round; the printed tables are the artefacts to compare.
"""

from repro.analysis.report import format_table
from repro.bench import ablations
from repro.bench.ablations import ExponentialBackoff
from repro.core.timeouts import AdaptiveTimeout
from repro.workload.requests import Operation, Transaction


def _once(benchmark, func):
    """Run a cluster-level ablation exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def test_ablation_timeout_policy_stability(benchmark):
    """Constant-ε timeouts recover far faster than exponential back-off."""

    def run():
        adaptive = AdaptiveTimeout(initial=0.05)
        backoff = ExponentialBackoff(initial=0.05)
        for _ in range(10):
            adaptive.on_timeout()
            backoff.on_timeout()
        return adaptive.interval, backoff.interval

    adaptive_interval, backoff_interval = benchmark(run)
    # After ten consecutive timeouts the adaptive policy grew linearly
    # (50ms + 10*10ms) while exponential back-off exploded.
    assert adaptive_interval <= 0.16
    assert backoff_interval >= 10 * adaptive_interval


def test_ablation_digest_assignment_balance(benchmark):
    """Digest-based assignment load-balances requests across instances."""

    def run():
        counts = [0] * 16
        for sequence in range(4000):
            txn = Transaction(client_id=sequence % 32, sequence=sequence, operations=(Operation.read(sequence),))
            counts[txn.instance_assignment(16)] += 1
        return counts

    counts = benchmark(run)
    expected = sum(counts) / len(counts)
    # No instance receives more than 40% above or below its fair share.
    assert all(0.6 * expected < count < 1.4 * expected for count in counts)


def test_ablation_commit_rule_safety(benchmark):
    """Example 3.6: the two-view rule commits conflicting proposals, the paper's rule does not."""
    rows = benchmark(ablations.commit_rule_safety)
    print("\n=== Ablation: commit rule (Example 3.6) ===")
    print(format_table(rows, ["commit_rule", "commits_at_A", "commits_at_B", "conflicting_commits", "safe"]))
    by_rule = {row["commit_rule"]: row for row in rows}
    assert by_rule["three-view"]["safe"]
    assert not by_rule["two-view"]["safe"]


def test_ablation_rapid_view_synchronization_recovery(benchmark):
    """RVS lets a partitioned replica catch up; a GST pacemaker leaves it lagging."""
    rows = _once(benchmark, ablations.view_synchronization_recovery)
    print("\n=== Ablation: Rapid View Synchronization vs GST pacemaker ===")
    print(format_table(rows, ["view_sync_mode", "view_lag_at_heal", "view_lag_after_recovery", "caught_up"]))
    by_mode = {row["view_sync_mode"]: row for row in rows}
    assert by_mode["rvs"]["view_lag_after_recovery"] <= by_mode["gst"]["view_lag_after_recovery"]


def test_ablation_timeout_policy_after_crash(benchmark):
    """Post-crash throughput with constant-ε timeouts versus exponential back-off."""
    rows = _once(benchmark, ablations.timeout_policy_stability)
    print("\n=== Ablation: timeout policy after a crash ===")
    print(
        format_table(
            rows,
            [
                "timeout_policy",
                "confirmed_total",
                "post_failure_min",
                "post_failure_max",
                "post_failure_spread",
                "post_failure_spread_share",
            ],
        )
    )
    by_policy = {row["timeout_policy"]: row for row in rows}
    assert by_policy["adaptive"]["confirmed_total"] >= by_policy["exponential"]["confirmed_total"]


def test_ablation_assignment_policy_load_balance(benchmark):
    """Digest assignment spreads load; client binding leaves instances idle."""
    rows = _once(benchmark, ablations.assignment_load_balance)
    print("\n=== Ablation: request-to-instance assignment ===")
    print(
        format_table(
            rows,
            ["assignment_policy", "instances", "least_loaded_commits", "most_loaded_commits", "imbalance_ratio"],
        )
    )
    by_policy = {row["assignment_policy"]: row for row in rows}
    assert by_policy["client"]["imbalance_ratio"] >= by_policy["digest"]["imbalance_ratio"]


def test_ablation_geo_fast_path(benchmark):
    """The Section 6.1 fast path: optimistic proposals fire without harming safety or throughput."""
    rows = _once(benchmark, ablations.fast_path_latency)
    print("\n=== Ablation: geo fast path (Section 6.1) ===")
    print(format_table(rows, ["fast_path", "mean_latency_s", "throughput_txn_s", "fast_path_proposals"]))
    by_flag = {row["fast_path"]: row for row in rows}
    assert by_flag[True]["fast_path_proposals"] > 0
    assert by_flag[True]["throughput_txn_s"] >= 0.5 * by_flag[False]["throughput_txn_s"]


def test_ablation_model_simulator_cross_validation(benchmark):
    """The analytical model and the message-level simulator rank protocols consistently."""
    from repro.analysis.validation import cross_validate_protocols, validation_report

    def run():
        points = cross_validate_protocols(
            protocols=("spotless", "hotstuff"), num_replicas=4, duration=0.5, batch_size=5
        )
        return validation_report(points)

    report = _once(benchmark, run)
    print("\n=== Ablation: model vs simulator cross-validation ===")
    print(format_table(report["rows"], ["protocol", "replicas", "simulated_txn_s", "model_txn_s"]))
    assert report["rank_agreement"] == 1.0
