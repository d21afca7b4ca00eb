"""Tests for fault injection, the analytical models and the experiment harness."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import complexity_table, format_complexity_table
from repro.analysis.model import PerformanceModel, ResourceProfile, Scenario
from repro.analysis.report import format_table, relative_change
from repro.bench import experiments
from repro.bench.experiments import FIGURES
from repro.bench.cluster import SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.faults.attacks import (
    DarknessAttack,
    EquivocationAttack,
    VoteWithholdingAttack,
    attack_by_name,
)
from repro.faults.injector import FaultEvent, FaultInjector


# ---------------------------------------------------------------------------
# attack scenarios
# ---------------------------------------------------------------------------


def test_attack_by_name_builds_the_right_scenario():
    assert isinstance(attack_by_name("a2", [1], victims=[2]), DarknessAttack)
    assert isinstance(attack_by_name("A3", [1]), EquivocationAttack)
    assert isinstance(attack_by_name("A4", [1]), VoteWithholdingAttack)
    # A1 is a crash: the injector applies it as a down-mark, not a rule.
    for label in ("A1", "A9"):
        with pytest.raises(ValueError):
            attack_by_name(label, [1])


def test_spotless_safety_under_darkness_attack():
    """A2 attack in a real run: victims are kept in the dark by a Byzantine
    primary, yet no divergence occurs and progress continues."""
    config = SpotLessConfig(num_replicas=4)
    cluster = SimulatedCluster.spotless(config, clients=3, outstanding_per_client=4)
    FaultInjector(cluster).schedule(FaultEvent(kind="A2", at=0.0, replicas=(0,), victims=(3,)))
    result = cluster.run(duration=1.0)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 5


def test_spotless_safety_under_vote_withholding():
    config = SpotLessConfig(num_replicas=4)
    cluster = SimulatedCluster.spotless(config, clients=3, outstanding_per_client=4)
    FaultInjector(cluster).schedule(FaultEvent(kind="A4", at=0.0, replicas=(1,)))
    result = cluster.run(duration=1.0)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 5


def test_fault_injector_heals_crashes():
    config = SpotLessConfig(num_replicas=4)
    cluster = SimulatedCluster.spotless(config, clients=2, outstanding_per_client=3)
    FaultInjector(cluster).schedule(FaultEvent(kind="crash", at=0.1, until=0.3, replicas=(3,)))
    cluster.start()
    cluster.simulator.run_for(0.2)
    assert cluster.network.is_down(3)
    cluster.simulator.run_for(0.3)
    assert not cluster.network.is_down(3)


# ---------------------------------------------------------------------------
# complexity table (Figure 1)
# ---------------------------------------------------------------------------


def test_complexity_table_matches_figure_1():
    rows = {row.protocol: row for row in complexity_table()}
    assert rows["SpotLess"].phases == 6
    assert rows["Pbft"].phases == 3
    assert rows["HotStuff"].phases == 8
    n, c = 128, 128
    assert rows["SpotLess"].evaluate(n, c)["messages"] == c * 3 * n * n
    assert rows["RCC"].evaluate(n, c)["per_decision"] == 2 * n * n
    assert rows["HotStuff"].evaluate(n)["messages_at_primary"] == 4 * n
    assert "SpotLess" in format_complexity_table()


def test_complexity_spotless_halves_rcc_per_decision_for_all_n():
    rows = {row.protocol: row for row in complexity_table()}
    for n in (4, 16, 64, 128):
        spotless = rows["SpotLess"].evaluate(n)["per_decision"]
        rcc = rows["RCC"].evaluate(n)["per_decision"]
        assert rcc == 2 * spotless


# ---------------------------------------------------------------------------
# performance model
# ---------------------------------------------------------------------------


def test_model_reproduces_the_paper_ordering_at_128_replicas():
    model = PerformanceModel()
    results = {
        name: model.predict(Scenario(protocol=name, num_replicas=128)).throughput
        for name in ("spotless", "rcc", "pbft", "hotstuff", "narwhal-hs")
    }
    assert results["spotless"] > results["rcc"] > results["narwhal-hs"] > results["pbft"] > results["hotstuff"]
    # Rough factors from the abstract: >4x over Pbft, >15x over HotStuff.
    assert results["spotless"] > 4 * results["pbft"]
    assert results["spotless"] > 15 * results["hotstuff"]


def test_model_throughput_never_exceeds_execution_ceiling():
    model = PerformanceModel()
    for protocol in ("spotless", "rcc", "pbft"):
        for n in (4, 16, 64):
            prediction = model.predict(Scenario(protocol=protocol, num_replicas=n, batch_size=400))
            assert prediction.throughput <= ResourceProfile().execution_rate_txn_per_sec + 1e-6


def test_model_failures_reduce_throughput_and_latency_increases():
    model = PerformanceModel()
    healthy = model.predict(Scenario(protocol="spotless", num_replicas=128))
    degraded = model.predict(Scenario(protocol="spotless", num_replicas=128, faulty_replicas=42))
    assert degraded.throughput < healthy.throughput
    assert degraded.latency > healthy.latency
    # The paper reports roughly a 41% decrease with f failures at n=128.
    decrease = 1 - degraded.throughput / healthy.throughput
    assert 0.25 < decrease < 0.6


def test_model_offered_load_caps_throughput():
    model = PerformanceModel()
    limited = model.predict(
        Scenario(protocol="spotless", num_replicas=128, offered_client_batches_per_primary=12)
    )
    saturated = model.predict(Scenario(protocol="spotless", num_replicas=128))
    assert limited.throughput < saturated.throughput
    assert limited.bottleneck == "offered_load"


def test_model_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        PerformanceModel().predict(Scenario(protocol="raft", num_replicas=16))


def test_resource_profile_helpers():
    base = ResourceProfile()
    assert base.with_cores(8).cpu_cores == 8
    assert base.with_bandwidth_mbit(500).bandwidth_bytes_per_sec == pytest.approx(500e6 / 8)
    geo = base.with_regions(4)
    assert geo.effective_delay() > base.effective_delay()
    assert geo.effective_bandwidth() < base.effective_bandwidth()


@given(
    st.sampled_from(["spotless", "rcc", "pbft", "hotstuff", "narwhal-hs"]),
    st.integers(min_value=4, max_value=160),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_model_predictions_are_finite_positive_and_bounded(protocol, n, batch, faulty):
    """Property: the model never returns nonsense for any operating point."""
    model = PerformanceModel()
    prediction = model.predict(
        Scenario(protocol=protocol, num_replicas=n, batch_size=batch, faulty_replicas=min(faulty, (n - 1) // 3))
    )
    assert 0 < prediction.throughput <= ResourceProfile().execution_rate_txn_per_sec + 1e-6
    assert 0 < prediction.latency < 60.0


@given(st.integers(min_value=4, max_value=128))
@settings(max_examples=30, deadline=None)
def test_model_spotless_beats_hotstuff_at_every_scale(n):
    model = PerformanceModel()
    spotless = model.predict(Scenario(protocol="spotless", num_replicas=n)).throughput
    hotstuff = model.predict(Scenario(protocol="hotstuff", num_replicas=n)).throughput
    assert spotless > hotstuff


# ---------------------------------------------------------------------------
# experiment harness and reporting
# ---------------------------------------------------------------------------


def test_scalability_experiment_covers_all_protocols_and_sizes():
    rows = FIGURES["fig7a-scalability"].run(replicas=(4, 16))
    assert len(rows) == 2 * len(experiments.PROTOCOLS)
    assert {row["replicas"] for row in rows} == {4, 16}
    assert all("throughput_txn_s" in row and "latency_s" in row for row in rows)


def test_failure_timeline_shows_rcc_dips_and_spotless_stability():
    rows = FIGURES["fig12-timeline"].run(replicas=32, faulty_replicas=1, duration=60.0)
    spotless = [r["throughput_txn_s"] for r in rows if r["protocol"] == "spotless" and r["time_s"] > 15]
    rcc = [r["throughput_txn_s"] for r in rows if r["protocol"] == "rcc" and r["time_s"] > 15]
    assert max(spotless) - min(spotless) < max(rcc) - min(rcc)


def test_byzantine_experiment_includes_all_attacks_and_rcc_reference():
    rows = FIGURES["fig11-byzantine"].run(faulty=(0, 4))
    attacks = {row["attack"] for row in rows if row["protocol"] == "spotless"}
    assert attacks == {"A1", "A2", "A3", "A4"}
    assert any(row["protocol"] == "rcc" for row in rows)


def test_geo_regions_experiment_has_both_batch_sizes():
    rows = FIGURES["fig14cd-regions"].run(regions=(1, 4), batch_size=(100, 400))
    assert {row["batch_size"] for row in rows} == {100, 400}
    assert {row["regions"] for row in rows} == {1, 4}


def test_single_instance_experiment_restricted_to_one_instance():
    rows = FIGURES["fig15-single-instance"].run(ratio=(0.0, 1.0))
    assert {row["protocol"] for row in rows} == {"spotless", "hotstuff"}


def test_sweep_rejects_an_axis_it_does_not_know():
    with pytest.raises(TypeError, match="replica_counts"):
        FIGURES["fig7a-scalability"].run(replica_counts=(4, 16))


def test_overriding_replicas_keeps_figure_8_failure_counts_within_f():
    rows = FIGURES["fig8-spotless-failures"].run(replicas=(4, 16))
    assert [row["faulty"] for row in rows if row["replicas"] == 4] == [0, 1]
    assert [row["faulty"] for row in rows if row["replicas"] == 16] == [0, 1, 2, 3, 4, 5]


def test_an_axis_the_figure_does_not_vary_is_walked_outermost():
    rows = FIGURES["fig13-instances"].run(replicas=(64,), instances=(1, 64))
    assert [(row["replicas"], row["instances"], row["protocol"]) for row in rows] == [
        (64, 1, "spotless"),
        (64, 1, "rcc"),
        (64, 64, "spotless"),
        (64, 64, "rcc"),
    ]


#: Row count and digest of every model figure at its defaults, as the
#: per-figure functions `sweep` replaced returned them (PR 21's HEAD).
FIGURE_ROWS = {
    "fig7a-scalability": (30, "ea0d00212487"),
    "fig7b-batching": (25, "86447d198ea7"),
    "fig7c-throughput-latency": (25, "b3d166902a45"),
    "fig7d-transaction-size": (30, "4ce426fa0b23"),
    "fig7e-failures": (40, "24c577c7bd3b"),
    "fig7f-failure-ratio": (30, "94236a1f21c4"),
    "fig8-spotless-failures": (35, "3c55b28d84c7"),
    "fig9-latency-failures": (30, "dcc26260d308"),
    "fig10-parallelism": (30, "dcc26260d308"),
    "fig11-byzantine": (40, "f1990b8cbc09"),
    "fig12-timeline": (56, "1a458f583769"),
    "fig13-instances": (12, "300f9938484d"),
    "fig14a-cpu": (20, "7e9065c226ba"),
    "fig14b-bandwidth": (25, "4747709c6d4b"),
    "fig14cd-regions": (40, "f7328433f445"),
    "fig15-single-instance": (12, "dd9b186878f3"),
}


def test_every_figure_but_the_simulated_one_is_pinned():
    assert set(FIGURE_ROWS) == set(FIGURES) - {"offered-load"}


@pytest.mark.parametrize("name", sorted(FIGURE_ROWS))
def test_figure_rows_match_their_pinned_digest(name):
    rows = FIGURES[name].run()
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:12]
    assert (len(rows), digest) == FIGURE_ROWS[name]


def test_format_table_renders_all_rows():
    rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 125000.0}]
    table = format_table(rows, ["a", "b"])
    assert "125,000" in table and table.count("\n") >= 3
    assert format_table([], ["a"]) == "(no data)"


def test_relative_change_helper():
    assert relative_change(100, 123) == pytest.approx(23.0)
    assert relative_change(0, 5) == float("inf")
