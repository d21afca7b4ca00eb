"""Tests for the parallel dispatch subsystem (`repro/dispatch/`).

Covers the four pieces the subsystem composes: deterministic per-cell seed
derivation, the content-addressed result cache, the dispatcher's
shard/collect cycle (serial and parallel runs must be indistinguishable),
and the randomized multi-fault scenario fuzzer.
"""

import json
import multiprocessing

import pytest

from repro.bench import ablations, experiments
from repro.dispatch import (
    CellFailure,
    DispatchError,
    DispatchTask,
    Dispatcher,
    ResultCache,
    fuzz_matrix,
    fuzz_spec,
    get_task,
    register_task,
    source_fingerprint,
)
from repro.scenarios import (
    FAULT_KINDS,
    ScenarioSpec,
    run_scenario,
    single_fault_spec,
)
from repro.sim.rng import derive_seed

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(1, "fuzz", 0) == derive_seed(1, "fuzz", 0)
    assert derive_seed(1, "fuzz", 0) != derive_seed(1, "fuzz", 1)
    assert derive_seed(1, "fuzz", 0) != derive_seed(2, "fuzz", 0)
    assert derive_seed(1, "fuzz", 0) != derive_seed(1, "matrix", 0)
    # Component boundaries are part of the derivation: names that merely
    # concatenate identically must not collide.
    assert derive_seed(1, "fuzz", 11) != derive_seed(1, "fuzz1", 1)
    assert derive_seed(1, "ab", "c") != derive_seed(1, "abc")
    assert derive_seed(1, "a", "bc") != derive_seed(1, "abc")


# ---------------------------------------------------------------------------
# source fingerprint
# ---------------------------------------------------------------------------


def test_source_fingerprint_is_stable_and_tree_sensitive(tmp_path):
    tree_a = tmp_path / "a"
    tree_a.mkdir()
    (tree_a / "mod.py").write_text("x = 1\n")
    tree_b = tmp_path / "b"
    tree_b.mkdir()
    (tree_b / "mod.py").write_text("x = 2\n")
    assert source_fingerprint(tree_a) == source_fingerprint(tree_a)
    assert source_fingerprint(tree_a) != source_fingerprint(tree_b)


def test_default_fingerprint_covers_the_repro_package():
    # One digest for the whole package, memoized per process.
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def test_cache_key_depends_on_task_payload_and_source(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    key = cache.key("scenario", {"a": 1})
    assert key == cache.key("scenario", {"a": 1})
    assert key != cache.key("scenario", {"a": 2})
    assert key != cache.key("figure", {"a": 1})
    assert key != ResultCache(root=tmp_path, fingerprint="f2").key("scenario", {"a": 1})


def test_cache_roundtrip_and_miss_counting(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    key = cache.key("figure", {"name": "x"})
    assert cache.get(key) is None
    cache.put(key, {"rows": [1, 2, 3]})
    assert cache.get(key) == {"rows": [1, 2, 3]}
    assert cache.misses == 1 and cache.hits == 1


def test_cache_treats_corrupt_entries_as_misses(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    key = cache.key("figure", {"name": "x"})
    cache.put(key, {"ok": True})
    cache._path(key).write_text("{not json")
    assert cache.get(key) is None


def test_prune_drops_stale_entries_but_hits_refresh_recency(tmp_path):
    import os
    import time

    cache = ResultCache(root=tmp_path, fingerprint="f1")
    stale_key = cache.key("figure", {"name": "stale"})
    live_key = cache.key("figure", {"name": "live"})
    cache.put(stale_key, {"v": 1})
    cache.put(live_key, {"v": 2})
    old = time.time() - 120
    os.utime(cache._path(stale_key), (old, old))
    os.utime(cache._path(live_key), (old, old))
    orphan = cache._path(stale_key).with_suffix(".tmp")  # interrupted write
    orphan.write_text("partial")
    os.utime(orphan, (old, old))
    assert cache.get(live_key) is not None  # hit re-touches the entry
    assert cache.prune(max_age_seconds=60) == 2
    assert cache.get(stale_key) is None
    assert not orphan.exists()
    assert cache.get(live_key) == {"v": 2}


def test_source_change_invalidates_every_entry(tmp_path):
    # Same payload, different source fingerprint: the new cache must not
    # serve the old entry (a false hit would return stale results).
    before = ResultCache(root=tmp_path, fingerprint="before")
    key = before.key("figure", {"name": "x"})
    before.put(key, {"stale": True})
    after = ResultCache(root=tmp_path, fingerprint="after")
    assert after.get(after.key("figure", {"name": "x"})) is None


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_task_registry_knows_the_builtin_kinds():
    for kind in ("scenario", "figure", "ablation", "triage-minimize"):
        assert get_task(kind).name == kind
    with pytest.raises(KeyError):
        get_task("no-such-task")


SMALL_SPECS = [
    single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1),
    single_fault_spec("hotstuff", "A1", f=1, duration=0.2, seed=2),
    single_fault_spec("spotless", "partition", f=1, duration=0.2, seed=3),
]


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_parallel_dispatch_matches_serial_run_in_order():
    serial = [run_scenario(spec) for spec in SMALL_SPECS]
    parallel = Dispatcher(workers=2).run("scenario", SMALL_SPECS)
    assert [r.spec.name for r in parallel] == [s.name for s in SMALL_SPECS]
    assert [r.summary_digest() for r in parallel] == [r.summary_digest() for r in serial]
    assert [r.committed_per_replica for r in parallel] == [
        r.committed_per_replica for r in serial
    ]


def test_dispatcher_serves_unchanged_cells_from_the_cache(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="pinned")
    first = Dispatcher(workers=1, cache=cache)
    fresh = first.run("scenario", SMALL_SPECS[:2])
    assert first.last_stats.executed == 2 and first.last_stats.cache_hits == 0
    second = Dispatcher(workers=1, cache=ResultCache(root=tmp_path, fingerprint="pinned"))
    cached = second.run("scenario", SMALL_SPECS[:2])
    assert second.last_stats.executed == 0 and second.last_stats.cache_hits == 2
    assert [r.summary_digest() for r in cached] == [r.summary_digest() for r in fresh]
    assert [r.row() for r in cached] == [r.row() for r in fresh]
    # ... and both match the bare in-process run: no pool, no cache, no ledger.
    plain = Dispatcher().run("scenario", SMALL_SPECS[:2])
    assert [r.summary_digest() for r in plain] == [r.summary_digest() for r in fresh]


def test_figure_and_ablation_cells_match_direct_calls():
    rows = Dispatcher().run("figure", [{"name": "fig7b-batching", "kwargs": {}}])[0]
    assert rows == experiments.FIGURES["fig7b-batching"].run()
    rows = Dispatcher().run("ablation", [{"name": "commit-rule"}])[0]
    assert rows == ablations.commit_rule_safety()
    with pytest.raises(DispatchError, match="KeyError: 'fig99-unknown'"):
        Dispatcher().run("figure", [{"name": "fig99-unknown"}])
    with pytest.raises(DispatchError, match="KeyError: 'no-such-ablation'"):
        Dispatcher().run("ablation", [{"name": "no-such-ablation"}])


def test_figure_kwargs_reach_the_experiment():
    rows = Dispatcher().run(
        "figure", [{"name": "fig7a-scalability", "kwargs": {"replicas": [4]}}]
    )[0]
    assert {row["replicas"] for row in rows} == {4}


# ---------------------------------------------------------------------------
# workers validation and fault isolation
# ---------------------------------------------------------------------------


def test_dispatcher_rejects_zero_and_negative_workers():
    # workers=0 used to be silently coerced to 1 by `workers if workers
    # else 1` — an accidental serial run instead of a clear error.
    with pytest.raises(ValueError):
        Dispatcher(workers=0)
    with pytest.raises(ValueError):
        Dispatcher(workers=-1)
    with pytest.raises(ValueError):
        Dispatcher(on_error="ignore")
    assert Dispatcher().workers == 1
    assert Dispatcher(workers=None).workers == 1
    assert Dispatcher(workers=4).workers == 4


def _run_exploding_cell(payload):
    if payload.get("boom"):
        raise RuntimeError(f"cell {payload['i']} exploded")
    return {"i": payload["i"]}


register_task(
    DispatchTask(
        name="test-exploding",
        run=_run_exploding_cell,
        payload_json=lambda payload: {"i": payload["i"]},
        encode=lambda value: value,
        decode=lambda value: value,
    )
)

EXPLODING_PAYLOADS = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]


def test_raising_cell_no_longer_aborts_the_campaign():
    # One bad cell used to tear down pool.map and discard every completed
    # cell's work; now it comes back as a tagged CellFailure record.
    dispatcher = Dispatcher(on_error="collect")
    results = dispatcher.run("test-exploding", EXPLODING_PAYLOADS)
    assert results[0] == {"i": 0} and results[2] == {"i": 2}
    failure = results[1]
    assert isinstance(failure, CellFailure)
    assert failure.index == 1
    assert failure.error_type == "RuntimeError"
    assert "cell 1 exploded" in failure.message
    assert "RuntimeError" in failure.traceback
    stats = dispatcher.last_stats
    assert stats.total == 3 and stats.failed == 1 and stats.executed == 3
    assert stats.wall_seconds >= 0.0
    assert "1 failed" in stats.summary()


def test_on_error_raise_surfaces_failures_after_completion():
    dispatcher = Dispatcher()  # on_error="raise" is the default
    with pytest.raises(DispatchError) as excinfo:
        dispatcher.run("test-exploding", EXPLODING_PAYLOADS)
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.failures[0].index == 1
    # The healthy cells still completed before the aggregate raise.
    assert dispatcher.last_stats.failed == 1
    assert dispatcher.last_stats.executed == 3


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_raising_cell_is_isolated_on_the_pool_too():
    dispatcher = Dispatcher(workers=2, on_error="collect")
    results = dispatcher.run("test-exploding", EXPLODING_PAYLOADS)
    assert results[0] == {"i": 0} and results[2] == {"i": 2}
    assert isinstance(results[1], CellFailure)
    assert dispatcher.last_stats.failed == 1


def test_stats_summary_mentions_every_account():
    from repro.dispatch import DispatchStats

    stats = DispatchStats(
        total=5, cache_hits=2, executed=3, workers=2, failed=1, wall_seconds=1.25
    )
    summary = stats.summary()
    assert "5 cells: 2 cached, 3 executed" in summary
    assert "1 failed" in summary and "2 worker(s)" in summary and "1.2s" in summary


# ---------------------------------------------------------------------------
# fuzzer
# ---------------------------------------------------------------------------


def test_fuzz_matrix_is_deterministic_per_seed():
    assert fuzz_matrix(8, seed=5) == fuzz_matrix(8, seed=5)
    assert fuzz_matrix(8, seed=5) != fuzz_matrix(8, seed=6)
    assert fuzz_matrix(8, seed=5)[3] == fuzz_spec(5, 3)


def test_fuzz_specs_stay_inside_the_threat_model():
    for spec in fuzz_matrix(32, seed=7):
        # Constructing the spec already ran validation; check the fuzz
        # policy on top: every window heals (so liveness is always judged),
        # at most f replicas ever misbehave, recovery stays enabled.
        assert spec.heal_time() is not None
        assert spec.strict_liveness
        assert spec.checkpoint_interval > 0
        assert spec.f in (1, 2)
        misbehaving = set()
        for event in spec.events:
            assert event.kind in FAULT_KINDS
            misbehaving.update(event.replicas)
            if event.kind == "partition":
                isolated = event.groups[1]
                misbehaving.update(isolated)
                # The honest majority and every client stay together.
                majority = set(event.groups[0])
                n = spec.resolved_replicas()
                assert set(range(n, n + spec.clients)) <= majority
        assert len(misbehaving) <= spec.f


def test_fuzz_events_are_sorted_chronologically():
    # Archived and minimized specs read top-to-bottom as a timeline.
    for spec in fuzz_matrix(32, seed=7):
        starts = [event.at for event in spec.events]
        assert starts == sorted(starts)


def test_fuzz_composes_multi_fault_scripts():
    specs = fuzz_matrix(32, seed=7)
    assert any(len(spec.events) > 1 for spec in specs)
    kinds = {event.kind for spec in specs for event in spec.events}
    assert len(kinds) >= 5  # the campaign actually mixes fault families


def test_fuzz_spec_json_roundtrip_is_exact():
    for spec in fuzz_matrix(8, seed=9):
        blob = json.dumps(spec.to_json_dict())
        assert ScenarioSpec.from_json_dict(json.loads(blob)) == spec


def test_tampered_archive_fails_validation():
    data = fuzz_spec(9, 0).to_json_dict()
    data["protocol"] = "raft"
    with pytest.raises(ValueError):
        ScenarioSpec.from_json_dict(data)
    data = fuzz_spec(9, 0).to_json_dict()
    data["format"] = 99
    with pytest.raises(ValueError):
        ScenarioSpec.from_json_dict(data)
