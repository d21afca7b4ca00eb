"""Tests for the scenario-matrix chaos harness and the invariant oracle.

The golden-digest test runs the full smoke matrix (5 protocols x 6 fault
families at f = 1) and pins each run's deterministic summary digest, so any
behavioural drift of a protocol under attack is caught immediately.
"""

import pytest

from repro.cli import main
from repro.scenarios import (
    ATTACK_KINDS,
    PROTOCOLS,
    FaultEvent,
    InvariantOracle,
    ScenarioSpec,
    run_scenario,
    scenario_matrix,
    single_fault_spec,
    smoke_matrix,
)
from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# spec validation and helpers
# ---------------------------------------------------------------------------


def test_fault_event_rejects_unknown_kind_and_bad_window():
    with pytest.raises(ValueError):
        FaultEvent(kind="meteor", at=0.1)
    with pytest.raises(ValueError):
        FaultEvent(kind="crash", at=0.2, until=0.1)


def test_scenario_spec_rejects_unknown_protocol_and_late_events():
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", protocol="raft")
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x",
            protocol="pbft",
            duration=0.2,
            events=(FaultEvent(kind="crash", at=0.5, replicas=(3,)),),
        )


def test_heal_time_and_fault_label():
    healing = ScenarioSpec(
        name="x",
        protocol="pbft",
        duration=1.0,
        events=(
            FaultEvent(kind="crash", at=0.1, until=0.3, replicas=(2,)),
            FaultEvent(kind="A1", at=0.2, until=0.5, replicas=(3,)),
        ),
    )
    assert healing.heal_time() == 0.5
    assert healing.fault_label() == "crash+A1"
    persistent = ScenarioSpec(
        name="y",
        protocol="pbft",
        duration=1.0,
        events=(FaultEvent(kind="crash", at=0.1, replicas=(3,)),),
    )
    assert persistent.heal_time() is None
    assert ScenarioSpec(name="z", protocol="pbft").heal_time() == 0.0


def test_heal_after_run_end_counts_as_persistent():
    # A heal scheduled past the run's end never takes effect inside the run:
    # the liveness check must be skipped, not reported as a false violation.
    spec = ScenarioSpec(
        name="late-heal",
        protocol="pbft",
        duration=0.3,
        events=(FaultEvent(kind="crash", at=0.1, until=0.6, replicas=(3,)),),
    )
    assert spec.heal_time() is None
    result = run_scenario(spec)
    assert not any(v.invariant == "liveness" for v in result.violations)


def test_scenario_spec_rejects_out_of_range_replica_ids():
    # Replica 4 of a 4-replica cluster is client 0: faulting it would test
    # nothing while reporting a clean pass.
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x",
            protocol="pbft",
            f=1,
            events=(FaultEvent(kind="crash", at=0.1, replicas=(4,)),),
        )
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x",
            protocol="pbft",
            f=1,
            events=(FaultEvent(kind="A2", at=0.1, replicas=(3,), victims=(99,)),),
        )
    # Partition groups may include client node ids (n..n+clients-1) but
    # nothing beyond them.
    ScenarioSpec(
        name="ok",
        protocol="pbft",
        f=1,
        clients=2,
        events=(FaultEvent(kind="partition", at=0.1, groups=((0, 1, 2, 4, 5), (3,))),),
    )
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x",
            protocol="pbft",
            f=1,
            clients=2,
            events=(FaultEvent(kind="partition", at=0.1, groups=((0, 1, 2, 6), (3,))),),
        )


def test_scenario_spec_rejects_targetless_fault_events():
    # A crash/attack without targets (or A2/A3 without victims) would inject
    # nothing and report a clean pass for a fault that never happened.
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x", protocol="pbft", events=(FaultEvent(kind="crash", at=0.1),)
        )
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x",
            protocol="pbft",
            events=(FaultEvent(kind="A3", at=0.1, replicas=(3,)),),
        )
    with pytest.raises(ValueError):
        ScenarioSpec(
            name="x", protocol="pbft", events=(FaultEvent(kind="partition", at=0.1),)
        )


def test_persistent_latency_window_restores_config_after_the_run():
    from repro.scenarios.runner import ScenarioRunner

    spec = ScenarioSpec(
        name="latency-forever",
        protocol="pbft",
        duration=0.2,
        events=(FaultEvent(kind="latency", at=0.05, factor=4.0),),
    )
    runner = ScenarioRunner(spec)
    config = runner.cluster.network.config
    base_delay, jitter = config.base_delay, config.jitter
    runner.run()
    # The window never healed inside the run, but the shared config must not
    # stay scaled for whoever builds the next cluster from it.
    assert config.base_delay == base_delay
    assert config.jitter == jitter


def test_single_fault_spec_shapes_the_attack():
    spec = single_fault_spec("spotless", "A2", f=2, duration=1.0)
    assert spec.resolved_replicas() == 7
    event = spec.events[0]
    assert event.kind == "A2"
    assert event.replicas == (5, 6)  # attackers: highest ids
    assert event.victims == (0, 1)  # victims: lowest ids, disjoint
    assert event.at == 0.25 and event.until == 0.5


def test_single_fault_partition_keeps_clients_with_the_majority():
    spec = single_fault_spec("pbft", "partition", f=1, clients=2)
    groups = spec.events[0].groups
    majority, isolated = groups
    assert isolated == (3,)
    # Client node ids (4, 5) ride with the majority side.
    assert set(majority) == {0, 1, 2, 4, 5}


def test_matrix_builders_cover_the_grid():
    full = scenario_matrix()
    assert len(full) == len(PROTOCOLS) * 6 * 2
    smoke = smoke_matrix()
    assert len(smoke) == len(PROTOCOLS) * 6
    assert {spec.protocol for spec in smoke} == set(PROTOCOLS)
    assert all(spec.f == 1 for spec in smoke)
    # Stragglers are hard failures across both grids from now on.
    assert all(spec.strict_liveness for spec in full + smoke)
    assert all(spec.checkpoint_interval > 0 for spec in full + smoke)
    # A direct smoke_matrix() call must build the same specs the CLI runs,
    # so its digests compare against GOLDEN_SMOKE (pinned at duration 0.4).
    assert all(spec.duration == 0.4 for spec in smoke)
    labels = {spec.fault_label() for spec in smoke}
    assert set(ATTACK_KINDS) <= labels and {"crash", "partition"} <= labels


# ---------------------------------------------------------------------------
# invariant oracle unit tests (stub clusters)
# ---------------------------------------------------------------------------


class StubConfig:
    weak_quorum = 2


class StubReplica:
    def __init__(self, node_id, committed=None, executed=None):
        self.node_id = node_id
        self.config = StubConfig()
        self._committed = committed or {}
        self._executed = executed or []
        self.executed_transactions = len(self._executed)

    def committed_map(self):
        return dict(self._committed)

    def executed_transaction_digests(self):
        return list(self._executed)


class StubClient:
    def __init__(self, client_id, confirmed_digests=()):
        self.client_id = client_id
        self.confirmed_digests = list(confirmed_digests)
        self.confirmed_transactions = len(self.confirmed_digests)


class StubCluster:
    def __init__(self, replicas, clients=()):
        self.simulator = Simulator()
        self.replicas = list(replicas)
        self.clients = list(clients)


def test_oracle_detects_agreement_violation():
    cluster = StubCluster(
        [
            StubReplica(0, committed={(0, 0): b"a"}),
            StubReplica(1, committed={(0, 0): b"b"}),
        ]
    )
    oracle = InvariantOracle(cluster)
    oracle.check_now()
    assert any(v.invariant == "agreement" for v in oracle.violations)


def test_oracle_detects_fork_in_executed_order():
    cluster = StubCluster(
        [
            StubReplica(0, executed=[b"t1", b"t2", b"t3"]),
            StubReplica(1, executed=[b"t1", b"tX"]),
        ]
    )
    oracle = InvariantOracle(cluster)
    oracle.check_now()
    assert any(v.invariant == "no-fork" for v in oracle.violations)
    # A persistent fork re-triggers on every tick but is one defect.
    oracle.check_now()
    oracle.check_now()
    assert len([v for v in oracle.violations if v.invariant == "no-fork"]) == 1


def test_oracle_accepts_lagging_prefixes():
    cluster = StubCluster(
        [
            StubReplica(0, committed={(0, 0): b"a"}, executed=[b"t1", b"t2"]),
            StubReplica(1, committed={(0, 0): b"a"}, executed=[b"t1"]),
        ]
    )
    oracle = InvariantOracle(cluster)
    oracle.check_now()
    assert oracle.ok


def test_oracle_detects_shrinking_frontier():
    replica = StubReplica(0, executed=[b"t1", b"t2"])
    cluster = StubCluster([replica])
    oracle = InvariantOracle(cluster)
    oracle.check_now()
    replica._executed = [b"t1"]  # a rollback must be flagged
    oracle.check_now()
    assert any(v.invariant == "monotonic-frontier" for v in oracle.violations)


def test_oracle_detects_unexecuted_confirmations():
    cluster = StubCluster(
        [StubReplica(0, executed=[b"t1"]), StubReplica(1, executed=[b"t1"])],
        clients=[StubClient(0, confirmed_digests=[b"ghost"])],
    )
    oracle = InvariantOracle(cluster)
    oracle.final_check(heal_time=None)
    assert any(v.invariant == "inform-durability" for v in oracle.violations)


def test_oracle_requires_weak_quorum_of_copies():
    # Confirmed digest executed by only one of two replicas: below weak quorum.
    cluster = StubCluster(
        [StubReplica(0, executed=[b"t1"]), StubReplica(1, executed=[])],
        clients=[StubClient(0, confirmed_digests=[b"t1"])],
    )
    oracle = InvariantOracle(cluster)
    oracle.final_check(heal_time=None)
    assert any(v.invariant == "inform-durability" for v in oracle.violations)


def test_oracle_detects_stalled_liveness_after_heal():
    replica = StubReplica(0, executed=[b"t1"])
    cluster = StubCluster([replica])
    oracle = InvariantOracle(cluster, check_interval=0.1)
    oracle.arm(1.0)
    cluster.simulator.run_for(1.0)  # samples tick but progress never moves
    oracle.final_check(heal_time=0.5)
    assert any(v.invariant == "liveness" for v in oracle.violations)


def test_oracle_liveness_passes_when_progress_resumes():
    replica = StubReplica(0, executed=[b"t1"])
    cluster = StubCluster([replica])
    oracle = InvariantOracle(cluster, check_interval=0.1)
    oracle.arm(1.0)
    cluster.simulator.schedule(
        0.8, lambda: setattr(replica, "executed_transactions", 5), label="progress"
    )
    cluster.simulator.run_for(1.0)
    oracle.final_check(heal_time=0.5)
    assert oracle.ok


# ---------------------------------------------------------------------------
# seeded end-to-end runs: determinism and golden digests
# ---------------------------------------------------------------------------

# Deterministic summary digests of the smoke matrix (duration 0.4, seed 1),
# recorded with the recovery subsystem active (checkpoint_interval=8) and
# strict liveness on.  Regenerate with: python -m repro scenario --matrix smoke
GOLDEN_SMOKE = {
    # Re-pinned when a proposal came to carry its transactions and be priced
    # by them (every SpotLess, PBFT and RCC cell, HotStuff A3, Narwhal-HS
    # A1, A4, crash and partition): CHANGES.md names the cause per cell.
    # SpotLess A1, crash and partition were re-pinned again when n − f
    # failure claims came to end a view (confirmed 102/102/103 → 128/128/121).
    # Every SpotLess cell was re-pinned when an instance came to enter view
    # v + 1 only once every instance at its replica had entered view v
    # (confirmed A1..A4, crash, partition 128/159/168/157/128/121 →
    # 114/168/166/165/114/128).
    ("spotless", "A1"): "d891c6bbd8ed",
    ("spotless", "A2"): "dabab8531392",
    ("spotless", "A3"): "592ae5e72500",
    ("spotless", "A4"): "6949eff46828",
    ("spotless", "crash"): "2a23b156a4b3",
    ("spotless", "partition"): "93301beffa49",
    ("pbft", "A1"): "a2651cdf1f4c",
    ("pbft", "A2"): "5995ecb2a591",
    ("pbft", "A3"): "d680d5051143",
    ("pbft", "A4"): "f190dda68d51",
    ("pbft", "crash"): "af1c6cd33ca9",
    ("pbft", "partition"): "7e91bc39c4fa",
    ("rcc", "A1"): "42c2c67533d2",
    ("rcc", "A2"): "0548672fa75c",
    ("rcc", "A3"): "64249b4dae60",
    ("rcc", "A4"): "bec58c60b13d",
    ("rcc", "crash"): "79b8488acdfb",
    ("rcc", "partition"): "26bfec9ec010",
    ("hotstuff", "A1"): "f86794d31ef9",
    ("hotstuff", "A2"): "7b3fad2ec75c",
    ("hotstuff", "A3"): "ea434fdb1faf",
    ("hotstuff", "A4"): "618ec0b039de",
    ("hotstuff", "crash"): "ea228cd968f3",
    ("hotstuff", "partition"): "ea13418f0d32",
    ("narwhal-hs", "A1"): "d1dfce1e4bec",
    ("narwhal-hs", "A2"): "407b2daf76ba",
    ("narwhal-hs", "A3"): "a69d63e40c06",
    ("narwhal-hs", "A4"): "67270f05f658",
    ("narwhal-hs", "crash"): "de50bd8e78db",
    ("narwhal-hs", "partition"): "29ae3e087ac3",
}

SMOKE_FAULTS = ("A1", "A2", "A3", "A4", "crash", "partition")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_smoke_matrix_clean_and_golden(protocol):
    """Every fault family leaves zero invariant violations and a pinned digest."""
    for fault in SMOKE_FAULTS:
        result = run_scenario(single_fault_spec(protocol, fault, f=1, duration=0.4, seed=1))
        assert result.violations == (), (
            f"{protocol}/{fault}: {[str(v) for v in result.violations]}"
        )
        assert result.confirmed_transactions > 0
        assert result.summary_digest() == GOLDEN_SMOKE[(protocol, fault)], (
            f"{protocol}/{fault} drifted"
        )


def test_same_seed_gives_identical_summary():
    spec = single_fault_spec("hotstuff", "A3", f=1, duration=0.3, seed=9)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.summary_digest() == second.summary_digest()
    assert first.committed_per_replica == second.committed_per_replica
    assert first.confirmed_transactions == second.confirmed_transactions


def test_different_seed_changes_the_run():
    base = run_scenario(single_fault_spec("hotstuff", "A4", f=1, duration=0.3, seed=1))
    other = run_scenario(single_fault_spec("hotstuff", "A4", f=1, duration=0.3, seed=2))
    assert base.summary_digest() != other.summary_digest()


def test_oracle_checks_actually_ran():
    result = run_scenario(single_fault_spec("hotstuff", "crash", f=1, duration=0.3, seed=1))
    assert result.checks_run >= 5  # periodic ticks plus the final check


def test_scenario_runner_enables_digest_recording_but_benchmarks_skip_it():
    from repro.scenarios.runner import ScenarioRunner

    runner = ScenarioRunner(single_fault_spec("pbft", "A4", f=1, duration=0.2, seed=1))
    runner.run()
    assert any(client.confirmed_digests for client in runner.cluster.clients)
    # A plain benchmark cluster keeps the per-digest log off.
    from repro.bench.cluster import SimulatedCluster

    cluster = SimulatedCluster.for_protocol("pbft", num_replicas=4, clients=2, batch_size=4)
    cluster.run(duration=0.1)
    assert all(not client.confirmed_digests for client in cluster.clients)
    assert any(client.confirmed_transactions for client in cluster.clients)


def test_strict_liveness_is_the_default_and_recovery_clears_stragglers():
    # Scenario specs run under strict liveness now: the checkpoint/state-
    # transfer subsystem catches the healed replica back up, so the crash
    # cell that used to report straggler 3 must be clean end to end.
    spec = single_fault_spec("hotstuff", "crash", f=1, duration=0.3, seed=1)
    assert spec.strict_liveness
    result = run_scenario(spec)
    assert result.stragglers == ()
    assert result.violations == ()
    assert result.row()["stragglers"] == "-"


def test_chain_sync_recovers_the_healed_replica_without_checkpoints():
    from dataclasses import replace

    # checkpoint_interval=0 turns the recovery subsystem off.  This cell
    # used to pin the resulting wedge (straggler 3, a hard strict-liveness
    # failure); the chain-sync retry now catches the healed replica up on
    # its own — the synced nodes carry their transactions — and the counter
    # proves that that machinery, not checkpoints, did the work.
    spec = replace(
        single_fault_spec("hotstuff", "crash", f=1, duration=0.3, seed=1),
        checkpoint_interval=0,
    )
    result = run_scenario(spec)
    assert result.stragglers == ()
    assert result.violations == ()
    assert result.counters["chain_syncs_requested"] > 0


# ---------------------------------------------------------------------------
# crash-then-heal straggler regressions: every protocol's healed replica
# converges back to the cluster within the liveness window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_then_heal_replica_converges(protocol):
    spec = single_fault_spec(protocol, "crash", f=1, duration=0.4, seed=3)
    result = run_scenario(spec)
    assert result.violations == (), [str(v) for v in result.violations]
    assert result.stragglers == ()
    # Convergence, not just progress: the healed replica's ledger depth ends
    # within one checkpoint window (plus in-flight slots) of the deepest
    # replica, so state transfer actually caught it up to the cluster.
    depths = result.committed_per_replica
    lag = max(depths) - min(depths)
    assert lag <= 2 * spec.checkpoint_interval * spec.batch_size, (
        f"{protocol}: healed replica still {lag} transactions behind {depths}"
    )


def test_crash_then_heal_ledger_digests_are_prefix_consistent():
    # Beyond counts: the healed replica's executed ledger must be a prefix
    # of the deepest replica's (same transactions, same order).
    from repro.scenarios.runner import ScenarioRunner

    runner = ScenarioRunner(single_fault_spec("pbft", "crash", f=1, duration=0.4, seed=3))
    result = runner.run()
    assert result.violations == ()
    ledgers = [replica.executed_transaction_digests() for replica in runner.cluster.replicas]
    deepest = max(ledgers, key=len)
    for ledger in ledgers:
        assert ledger == deepest[: len(ledger)]
        assert len(ledger) > 0


# ---------------------------------------------------------------------------
# dispatch integration: cross-process determinism and JSON replayability
# ---------------------------------------------------------------------------


def test_dispatcher_worker_reproduces_in_process_digest():
    # The same spec run in this process and through a Dispatcher worker
    # pool must be indistinguishable — this is what makes the parallel
    # matrix byte-identical to the serial one.
    import multiprocessing

    from repro.dispatch import Dispatcher

    spec = single_fault_spec("rcc", "A2", f=1, duration=0.3, seed=7)
    in_process = run_scenario(spec)
    workers = 2 if "fork" in multiprocessing.get_all_start_methods() else 1
    dispatched = Dispatcher(workers=workers).run("scenario", [spec, spec])
    for result in dispatched:
        assert result.summary_digest() == in_process.summary_digest()
        assert result.committed_per_replica == in_process.committed_per_replica
        assert result.row() == in_process.row()


def test_spec_json_roundtrip_rerun_reproduces_the_digest():
    # serialize -> deserialize -> re-run must land on the original digest;
    # this is the property that makes archived fuzz failures replayable.
    import json

    from repro.dispatch import fuzz_spec

    for spec in (
        single_fault_spec("hotstuff", "crash", f=1, duration=0.3, seed=5),
        fuzz_spec(11, 0, duration=0.2),  # multi-fault script included
    ):
        original = run_scenario(spec)
        revived = ScenarioSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert revived == spec
        replayed = run_scenario(revived)
        assert replayed.summary_digest() == original.summary_digest()
        assert replayed.committed_per_replica == original.committed_per_replica


def test_scenario_result_json_roundtrip_renders_identically():
    result = run_scenario(single_fault_spec("pbft", "A4", f=1, duration=0.2, seed=1))
    import json

    from repro.scenarios import ScenarioResult

    revived = ScenarioResult.from_json_dict(json.loads(json.dumps(result.to_json_dict())))
    assert revived.row() == result.row()
    assert revived.summary_digest() == result.summary_digest()
    assert revived.violations == result.violations


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_single_scenario_runs_clean(capsys):
    exit_code = main(
        ["scenario", "--protocol", "hotstuff", "--fault", "A3", "--duration", "0.3"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "hotstuff-A3-f1-s1" in output
    assert "all 1 scenarios clean" in output


def test_cli_rejects_unknown_fault(capsys):
    assert main(["scenario", "--fault", "meteor"]) == 2
    assert "unknown fault" in capsys.readouterr().err


def test_cli_rejects_unknown_protocol(capsys):
    assert main(["scenario", "--protocol", "raft", "--fault", "A1"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_cli_rejects_single_scenario_flags_with_matrix(capsys):
    # `--matrix smoke --f 2` must not silently run the f=1 grid.
    assert main(["scenario", "--matrix", "smoke", "--f", "2"]) == 2
    err = capsys.readouterr().err
    assert "--matrix selects the whole grid" in err and "--f" in err
