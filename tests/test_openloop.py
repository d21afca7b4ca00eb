"""Open-loop traffic engine tests.

Covers the time-varying load DSL
(:class:`LoadPhase`/:class:`LoadProfile`), the
:class:`OpenLoopClientPool` actor (offered rate matches the configured
rate at a golden seed), the duration-aware latency summary, and the SLO
oracle's breach-episode tracking through the overload scenario family.
"""

from dataclasses import replace
from types import SimpleNamespace
from typing import List

import pytest

from repro.core.client import OpenLoopClientPool
from repro.core.config import SpotLessConfig
from repro.core.messages import InformMessage
from repro.scenarios import (
    InvariantOracle,
    ScenarioSpec,
    SloBreach,
    SloSpec,
    overload_spec,
    run_scenario,
)
from repro.sim.actor import Actor
from repro.sim.engine import Simulator
from repro.sim.metrics import Histogram
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import DeterministicRng
from repro.workload.arrival import LoadPhase, LoadProfile, overload_profile
from repro.workload.requests import Transaction
from repro.workload.ycsb import YcsbWorkload


# ---------------------------------------------------------------------------
# the load DSL: phases and profiles
# ---------------------------------------------------------------------------


def test_load_phase_validation():
    with pytest.raises(ValueError):
        LoadPhase(shape="sawtooth", rate=100.0, duration=1.0)
    with pytest.raises(ValueError):
        LoadPhase(shape="hold", rate=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        LoadPhase(shape="hold", rate=100.0, duration=0.0)


def test_load_profile_requires_some_offered_load():
    with pytest.raises(ValueError):
        LoadProfile(phases=())
    with pytest.raises(ValueError):
        LoadProfile(phases=(LoadPhase(shape="hold", rate=0.0, duration=1.0),))


def test_ramp_interpolates_from_the_previous_phase_rate():
    profile = LoadProfile(
        phases=(
            LoadPhase(shape="ramp", rate=1000.0, duration=1.0),
            LoadPhase(shape="hold", rate=1000.0, duration=1.0),
            LoadPhase(shape="ramp", rate=200.0, duration=1.0),
        )
    )
    # First ramp starts from rate 0.
    assert profile.rate_at(0.5) == pytest.approx(500.0)
    assert profile.rate_at(1.5) == pytest.approx(1000.0)
    # Second ramp starts from the hold's 1000/s and descends.
    assert profile.rate_at(2.5) == pytest.approx(600.0)
    # The profile quiesces past its end.
    assert profile.rate_at(3.5) == 0.0
    assert profile.rate_at(-0.1) == 0.0
    assert profile.duration() == pytest.approx(3.0)
    assert profile.peak_rate() == pytest.approx(1000.0)


def test_profile_phase_windows_partition_the_schedule():
    profile = overload_profile(
        base_rate=100.0, spike_rate=400.0, ramp=0.1, hold=0.1, spike=0.1, drain=0.2, recovery=0.2
    )
    windows = profile.phase_windows()
    assert len(windows) == 6
    assert windows[0][0] == 0.0
    for (_, end_a, _), (start_b, _, _) in zip(windows, windows[1:]):
        assert end_a == pytest.approx(start_b)
    assert windows[-1][1] == pytest.approx(profile.duration())
    assert windows[2][2].shape == "spike"


def test_overload_profile_requires_a_real_spike():
    with pytest.raises(ValueError):
        overload_profile(
            base_rate=500.0, spike_rate=500.0, ramp=0.1, hold=0.1, spike=0.1, drain=0.1, recovery=0.1
        )


def test_load_profile_json_round_trip():
    profile = overload_profile(
        base_rate=880.0, spike_rate=4400.0, ramp=0.1, hold=0.1, spike=0.1, drain=0.3, recovery=0.3
    )
    assert LoadProfile.from_json_dict(profile.to_json_dict()) == profile


# ---------------------------------------------------------------------------
# the open-loop client pool
# ---------------------------------------------------------------------------


class _EchoReplica(Actor):
    """Answers every transaction with one Inform after a fixed delay."""

    def __init__(self, node_id, simulator, network, delay=0.001):
        super().__init__(node_id, simulator, network)
        self.delay = delay
        self.received: List[Transaction] = []

    def on_message(self, sender, payload):
        if not isinstance(payload, Transaction):
            return
        self.received.append(payload)
        inform = InformMessage(
            replica=self.node_id,
            client_id=payload.client_id,
            transaction_digest=payload.digest(),
        )
        self.call_later(self.delay, lambda msg=inform, target=sender: self.send(target, msg, 200))


def _pool_setup(arrival):
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(base_delay=0.0005, jitter=0.0))
    config = SpotLessConfig(num_replicas=4)
    replicas = [
        _EchoReplica(node_id=replica_id, simulator=simulator, network=network)
        for replica_id in range(4)
    ]
    workload = YcsbWorkload(rng=DeterministicRng(3))
    pool = OpenLoopClientPool(
        client_id=0,
        config=config,
        simulator=simulator,
        network=network,
        workload=workload,
        arrival=arrival,
        rng=DeterministicRng(5),
    )
    return simulator, replicas, pool


def test_pool_offered_rate_matches_the_configured_rate_at_a_golden_seed():
    rate = 2000.0
    simulator, _replicas, pool = _pool_setup(LoadProfile.constant(rate=rate, duration=1.0))
    pool.start()
    simulator.run_for(1.0)
    # Poisson counting fluctuation at n=2000 is ~45; 10 % is a loose bound
    # that still catches a rate bug (off by a factor, not by noise).
    assert pool.offered_transactions == pytest.approx(rate, rel=0.10)
    # All replicas answer, so the pool confirms what it offers.
    assert pool.confirmed_transactions == pytest.approx(pool.offered_transactions, abs=20)


def test_pool_profile_thinning_matches_the_constant_rate():
    rate = 1500.0
    simulator, _replicas, pool = _pool_setup(LoadProfile.constant(rate=rate, duration=1.0))
    pool.start()
    simulator.run_for(2.0)
    assert pool.offered_transactions == pytest.approx(rate, rel=0.10)


def test_pool_quiesces_after_the_profile_ends():
    simulator, _replicas, pool = _pool_setup(LoadProfile.constant(rate=1000.0, duration=0.5))
    pool.start()
    simulator.run_for(0.5)
    offered_at_end_of_schedule = pool.offered_transactions
    simulator.run_for(1.0)
    assert pool.offered_transactions == offered_at_end_of_schedule
    # With the schedule over and every request answered, the queue drains.
    assert pool.unconfirmed_count() == 0


def test_pool_confirmations_do_not_trigger_resubmission():
    simulator, replicas, pool = _pool_setup(LoadProfile.constant(rate=500.0, duration=0.4))
    pool.start()
    simulator.run_for(1.0)
    # Closed-loop clients resubmit on confirm; the open loop must not — every
    # transaction a replica saw was offered by the arrival schedule.
    digests_seen = {t.digest() for t in replicas[0].received}
    assert len(digests_seen) == pool.offered_transactions


# ---------------------------------------------------------------------------
# the SLO oracle through the overload scenario family
# ---------------------------------------------------------------------------


def test_overload_scenario_breaches_the_slo_and_recovers():
    result = run_scenario(overload_spec("spotless", duration=1.0))
    assert result.violations == ()
    assert result.slo_breaches, "the spike must trip at least one SLO episode"
    assert all(breach.recovered for breach in result.slo_breaches)
    spike_start = result.spec.load.phase_windows()[2][0]
    assert any(breach.started_at >= spike_start for breach in result.slo_breaches)


def test_enforce_mode_turns_every_breach_episode_into_a_violation():
    spec = overload_spec("spotless", duration=1.0)
    spec = replace(spec, slo=replace(spec.slo, mode="enforce"))
    result = run_scenario(spec)
    slo_violations = [v for v in result.violations if v.invariant.startswith("slo-")]
    assert slo_violations, "enforce mode must flag the spike-induced breach"


def test_require_breach_flags_a_run_that_never_saturates():
    # 2 % / 4 % of spotless capacity: the "spike" is far below saturation.
    spec = overload_spec("spotless", base_rate=40.0, spike_rate=90.0, duration=1.0)
    result = run_scenario(spec)
    assert [v.invariant for v in result.violations] == ["slo-no-breach"]
    assert result.slo_breaches == ()


def test_slo_window_median_is_the_second_lowest_of_four_samples():
    # The oracle ranks its window by the rule Histogram.percentile uses
    # (ceil(fraction * n) - 1), not one rank higher.
    pool = SimpleNamespace(
        latency=Histogram("latency"), oldest_pending_age=lambda: 0.0, confirmed_transactions=4
    )
    for value in (0.04, 0.01, 0.03, 0.02):
        pool.latency.observe(value)
    cluster = SimpleNamespace(simulator=Simulator(), replicas=[], clients=[pool])
    oracle = InvariantOracle(cluster, slo=SloSpec(p50_ceiling=0.015))
    oracle.check_now()
    assert [(breach.metric, breach.peak) for breach in oracle.slo_breaches] == [("p50", 0.02)]


def test_slo_spec_and_breach_json_round_trip():
    slo = SloSpec(p99_ceiling=0.05, max_queue_depth=400, mode="expect-recovery", require_breach=True)
    assert SloSpec.from_json_dict(slo.to_json_dict()) == slo
    breach = SloBreach(metric="p99", ceiling=0.05, started_at=0.3, ended_at=0.7, peak=0.12)
    assert SloBreach.from_json_dict(breach.to_json_dict()) == breach
    with pytest.raises(ValueError):
        SloSpec(mode="enforce")  # no ceiling at all
    with pytest.raises(ValueError):
        SloSpec(p99_ceiling=0.05, mode="sometimes")


def test_overload_spec_json_round_trip_preserves_load_and_slo():
    spec = overload_spec("pbft", duration=1.0)
    rebuilt = ScenarioSpec.from_json_dict(spec.to_json_dict())
    assert rebuilt == spec
    assert rebuilt.load == spec.load
    assert rebuilt.slo == spec.slo
    assert rebuilt.fault_label() == "overload"
