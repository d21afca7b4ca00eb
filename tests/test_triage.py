"""Tests for the failure-triage subsystem (`repro/triage/`).

Covers the three pieces the subsystem composes — canonical failure
signatures, the deterministic delta-debugging minimizer, and the
regression corpus with its replay classification — plus the CLI verbs.

The cheap, reliably failing scenario used throughout: a crash window with
`checkpoint_interval=0` (recovery disabled) under strict liveness wedges
the crashed replica as a post-heal straggler in ~0.2 simulated seconds.
"""

import json
from dataclasses import replace

import pytest

from repro.dispatch import ResultCache
from repro.scenarios import (
    FaultEvent,
    InvariantViolation,
    ScenarioResult,
    ScenarioSpec,
    canonical_violation_kinds,
    drop_event,
    replace_event,
    run_scenario,
    single_fault_spec,
    try_spec,
)
from repro.triage import (
    Corpus,
    CorpusEntry,
    EXPECT_FAILING,
    EXPECT_PASSING,
    FailureSignature,
    MinimizationResult,
    classify,
    minimize_spec,
    minimized_name,
    replay_corpus,
    signature_of,
)


def wedge_spec(seed: int = 1) -> ScenarioSpec:
    """A cheap spec that reliably fails: crash + recovery disabled."""
    return replace(
        single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=seed),
        checkpoint_interval=0,
    )


def fake_result(spec, violations=(), stragglers=()):
    """A ScenarioResult shell for tests that never run the simulator."""
    return ScenarioResult(
        spec=spec,
        confirmed_transactions=0,
        executed_transactions=0,
        committed_per_replica=(0,) * spec.resolved_replicas(),
        violations=tuple(violations),
        checks_run=1,
        stragglers=tuple(stragglers),
    )


def liveness_violation(detail="stuck"):
    return InvariantViolation(invariant="liveness-straggler", time=0.2, detail=detail)


# ---------------------------------------------------------------------------
# spec mutation helpers
# ---------------------------------------------------------------------------


def test_try_spec_returns_none_instead_of_raising():
    spec = wedge_spec()
    assert try_spec(spec, duration=0.5).duration == 0.5
    assert try_spec(spec, duration=-1.0) is None
    # Shrinking the run under the event's start time invalidates the spec.
    assert try_spec(spec, duration=0.01) is None


def test_drop_and_replace_event_helpers():
    spec = wedge_spec()
    assert drop_event(spec, 0).events == ()
    narrowed = replace_event(spec, 0, at=0.08)
    assert narrowed.events[0].at == 0.08
    assert narrowed.events[0].until == spec.events[0].until
    # A heal before the start is invalid -> None, not an exception.
    assert replace_event(spec, 0, at=0.15) is None


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_canonical_violation_kinds_sorts_and_dedups():
    violations = [
        InvariantViolation("liveness-straggler", 0.4, "replica 3"),
        InvariantViolation("agreement", 0.1, "slot 5"),
        InvariantViolation("liveness-straggler", 0.4, "replica 1"),
    ]
    assert canonical_violation_kinds(violations) == ("agreement", "liveness-straggler")


def test_signature_of_projects_kinds_and_stragglers_not_timestamps():
    spec = wedge_spec()
    early = fake_result(spec, [liveness_violation("replica 3 at 0.1s")], stragglers=(3,))
    late = fake_result(spec, [liveness_violation("replica 3 at 0.3s")], stragglers=(3,))
    assert signature_of(early) == signature_of(late)
    other = fake_result(spec, [liveness_violation()], stragglers=(1, 3))
    assert signature_of(early) != signature_of(other)
    assert signature_of(fake_result(spec)) is None


def test_signature_roundtrip_and_key_stability():
    signature = FailureSignature(
        protocol="rcc", invariants=("liveness", "liveness-straggler"), stragglers=(0, 1, 2, 3)
    )
    blob = json.dumps(signature.to_json_dict())
    restored = FailureSignature.from_json_dict(json.loads(blob))
    assert restored == signature
    assert restored.key() == signature.key()
    assert len(signature.key()) == 12
    assert "rcc" in signature.label()
    with pytest.raises(ValueError):
        FailureSignature(protocol="rcc", invariants=())
    bad = signature.to_json_dict()
    bad["format"] = 99
    with pytest.raises(ValueError):
        FailureSignature.from_json_dict(bad)


# ---------------------------------------------------------------------------
# oracle dedup (satellite: O(1) seen-set)
# ---------------------------------------------------------------------------


def test_oracle_record_dedups_identical_violations():
    from repro.bench.cluster import SimulatedCluster
    from repro.scenarios.oracle import InvariantOracle

    cluster = SimulatedCluster.for_protocol("pbft", num_replicas=4, seed=1)
    oracle = InvariantOracle(cluster)
    oracle._record("agreement", "slot 1 diverged")
    oracle._record("agreement", "slot 1 diverged")
    oracle._record("agreement", "slot 2 diverged")
    assert len(oracle.violations) == 2


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------


def test_minimizer_with_fake_oracle_keeps_only_the_relevant_window():
    # Three windows; the fake oracle fails exactly when the crash window is
    # still present.  The minimizer must drop both attack windows and keep
    # the crash, regardless of simulation details.
    events = (
        FaultEvent(kind="A1", at=0.02, until=0.06, replicas=(3,)),
        FaultEvent(kind="crash", at=0.05, until=0.1, replicas=(3,)),
        FaultEvent(kind="latency", at=0.03, until=0.08, factor=4.0),
    )
    spec = replace(wedge_spec(), events=events)
    runs = []

    def fake_evaluate(specs):
        runs.append(len(specs))
        out = []
        for candidate in specs:
            if any(event.kind == "crash" for event in candidate.events):
                out.append(fake_result(candidate, [liveness_violation()], stragglers=(3,)))
            else:
                out.append(fake_result(candidate))
        return out

    result = minimize_spec(spec, evaluate=fake_evaluate)
    assert result.reproduced
    assert [event.kind for event in result.minimized.events] == ["crash"]
    assert result.attempts == sum(runs)
    assert result.reductions >= 2
    assert result.minimized.name == spec.name + "-min"
    # Same spec, same fake oracle: byte-identical minimization.
    again = minimize_spec(spec, evaluate=fake_evaluate)
    assert json.dumps(again.to_json_dict(), sort_keys=True) == json.dumps(
        result.to_json_dict(), sort_keys=True
    )


def test_minimizer_is_deterministic_and_parallel_equals_serial(tmp_path):
    spec = wedge_spec()
    cache_root = tmp_path / "cache"
    serial = minimize_spec(spec, cache=ResultCache(root=cache_root, fingerprint="pin"))
    assert serial.reproduced
    # Strictly narrower: the crash window shrank and the run got shorter.
    original_window = spec.events[0].until - spec.events[0].at
    minimized_window = serial.minimized.events[0].until - serial.minimized.events[0].at
    assert minimized_window < original_window
    assert serial.minimized.duration < spec.duration
    # The minimized spec still reproduces the same signature when run alone.
    assert signature_of(run_scenario(serial.minimized)) == serial.signature
    # Re-run serially (cache-served) and with two workers: byte-identical.
    blob = json.dumps(serial.to_json_dict(), sort_keys=True)
    cached = minimize_spec(spec, cache=ResultCache(root=cache_root, fingerprint="pin"))
    assert json.dumps(cached.to_json_dict(), sort_keys=True) == blob
    parallel = minimize_spec(
        spec, workers=2, cache=ResultCache(root=cache_root, fingerprint="pin")
    )
    assert json.dumps(parallel.to_json_dict(), sort_keys=True) == blob


def test_minimizer_reports_clean_specs_as_not_reproduced():
    # With checkpointing enabled the crash scenario recovers cleanly.
    spec = single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    result = minimize_spec(spec, cache=None)
    assert not result.reproduced
    assert result.minimized == spec
    assert result.attempts == 1 and result.reductions == 0


def test_minimization_result_json_roundtrip():
    spec = wedge_spec()
    result = MinimizationResult(
        original=spec,
        minimized=replace(spec, name=minimized_name(spec.name)),
        signature=FailureSignature(protocol="pbft", invariants=("liveness-straggler",), stragglers=(3,)),
        attempts=7,
        reductions=2,
    )
    blob = json.dumps(result.to_json_dict(), sort_keys=True)
    assert MinimizationResult.from_json_dict(json.loads(blob)) == result
    assert minimized_name("x") == "x-min"
    assert minimized_name("x-min") == "x-min"


def test_minimizer_respects_the_attempt_budget():
    spec = wedge_spec()

    def failing_evaluate(specs):
        return [fake_result(s, [liveness_violation()], stragglers=(3,)) for s in specs]

    result = minimize_spec(spec, evaluate=failing_evaluate, max_attempts=3)
    assert result.attempts <= 3
    with pytest.raises(ValueError):
        minimize_spec(spec, evaluate=failing_evaluate, max_attempts=0)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def make_entry(name, spec, signature, expected=EXPECT_FAILING):
    return CorpusEntry(name=name, expected=expected, spec=spec, signature=signature)


def wedge_signature():
    return FailureSignature(protocol="pbft", invariants=("liveness-straggler",), stragglers=(3,))


def test_corpus_entry_roundtrip_and_validation():
    entry = make_entry("wedge", wedge_spec(), wedge_signature())
    blob = json.dumps(entry.to_json_dict())
    assert CorpusEntry.from_json_dict(json.loads(blob)) == entry
    with pytest.raises(ValueError):
        make_entry("wedge", wedge_spec(), wedge_signature(), expected="maybe")
    bad = entry.to_json_dict()
    bad["format"] = 99
    with pytest.raises(ValueError):
        CorpusEntry.from_json_dict(bad)


def test_corpus_ingest_dedups_by_signature(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    entry, created = corpus.ingest(wedge_spec(), wedge_signature(), source="a.json")
    assert created and entry.expected == EXPECT_FAILING
    assert corpus.path_for(entry.name).exists()
    # A second finding with the same signature is deduplicated...
    duplicate, created = corpus.ingest(wedge_spec(seed=2), wedge_signature(), source="b.json")
    assert not created and duplicate.name == entry.name
    assert len(corpus.entries()) == 1
    # ...but the same name with a different signature gets uniquified.
    other_signature = FailureSignature(
        protocol="pbft", invariants=("liveness-straggler",), stragglers=(1,)
    )
    distinct, created = corpus.ingest(wedge_spec(), other_signature, source="c.json")
    assert created and distinct.name != entry.name
    assert len(corpus.entries()) == 2


def test_corpus_ingest_repins_recurrence_of_a_promoted_signature(tmp_path):
    # A signature matching only a *promoted* (expected-passing) entry is a
    # recurrence of a fixed bug, not a duplicate: it must be pinned again
    # as still-failing so CI sees it.
    corpus = Corpus(tmp_path / "corpus")
    entry, _ = corpus.ingest(wedge_spec(), wedge_signature())
    corpus.promote(entry.name)
    recurrence, created = corpus.ingest(wedge_spec(seed=2), wedge_signature(), source="new.json")
    assert created and recurrence.expected == EXPECT_FAILING
    assert recurrence.name != entry.name
    assert len(corpus.entries()) == 2


def test_corpus_promote_flips_expectation(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    entry, _ = corpus.ingest(wedge_spec(), wedge_signature())
    promoted = corpus.promote(entry.name)
    assert promoted.expected == EXPECT_PASSING
    assert corpus.entries()[0].expected == EXPECT_PASSING
    with pytest.raises(KeyError):
        corpus.promote("no-such-entry")


def test_corrupt_corpus_entry_is_a_hard_error(tmp_path):
    root = tmp_path / "corpus"
    corpus = Corpus(root)
    corpus.ingest(wedge_spec(), wedge_signature())
    (root / "broken.json").write_text('{"format": 1, "name": "broken"}')
    with pytest.raises(ValueError, match="corrupt corpus entry"):
        corpus.entries()


def test_classify_covers_all_status_transitions():
    spec = wedge_spec()
    signature = wedge_signature()
    failing = make_entry("open-bug", spec, signature)
    clean = fake_result(spec)
    same = fake_result(spec, [liveness_violation()], stragglers=(3,))
    different = fake_result(spec, [liveness_violation()], stragglers=(1, 3))
    assert classify(failing, same) == "still-failing"
    assert classify(failing, clean) == "fixed"
    assert classify(failing, different) == "signature-changed"
    promoted = make_entry("closed-bug", spec, signature, expected=EXPECT_PASSING)
    assert classify(promoted, clean) == "passing"
    assert classify(promoted, same) == "regressed"


def test_replay_corpus_classifies_real_runs(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    # Entry 1: the wedge, pinned with its true signature -> still-failing.
    wedge = wedge_spec()
    true_signature = signature_of(run_scenario(wedge))
    corpus.add(make_entry("a-wedge", wedge, true_signature))
    # Entry 2: a recovering spec pinned as failing -> fixed.
    recovering = single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    corpus.add(make_entry("b-fixed", recovering, true_signature))
    # Entry 3: the wedge pinned with a doctored signature -> signature-changed.
    doctored = FailureSignature(
        protocol="pbft", invariants=("liveness-straggler",), stragglers=(0,)
    )
    corpus.add(make_entry("c-drifted", wedge, doctored))
    cache = ResultCache(root=tmp_path / "cache", fingerprint="pin")
    outcomes = replay_corpus(corpus, cache=cache)
    assert [outcome.entry.name for outcome in outcomes] == ["a-wedge", "b-fixed", "c-drifted"]
    assert [outcome.status for outcome in outcomes] == [
        "still-failing",
        "fixed",
        "signature-changed",
    ]
    assert [outcome.ok for outcome in outcomes] == [True, True, False]
    assert replay_corpus(Corpus(tmp_path / "missing")) == []


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


def write_archive(path, spec):
    path.write_text(json.dumps({"spec": spec.to_json_dict()}, indent=2, sort_keys=True))
    return str(path)


def test_cli_triage_minimize_emits_and_ingests(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    archive = write_archive(tmp_path / "wedge.json", wedge_spec())
    corpus_dir = tmp_path / "corpus"
    exit_code = cli.main(
        ["triage", "minimize", archive, "--ingest", "--corpus-dir", str(corpus_dir)]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "minimized" in captured.err and "signature:" in captured.err
    assert "pinned as corpus entry" in captured.err
    minimized = ScenarioSpec.from_json_dict(json.loads(captured.out))
    assert minimized.duration < 0.2
    entries = Corpus(corpus_dir).entries()
    assert len(entries) == 1 and entries[0].expected == EXPECT_FAILING
    # Re-ingesting the same signature reports the duplicate.
    assert cli.main(
        ["triage", "minimize", archive, "--ingest", "--corpus-dir", str(corpus_dir)]
    ) == 0
    assert "already pinned" in capsys.readouterr().err
    assert len(Corpus(corpus_dir).entries()) == 1


def test_cli_triage_minimize_handles_clean_and_bad_input(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["triage", "minimize", str(tmp_path / "missing.json")]) == 2
    assert "cannot minimize" in capsys.readouterr().err
    clean = write_archive(
        tmp_path / "clean.json", single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    )
    assert cli.main(["triage", "minimize", clean]) == 1
    assert "ran clean" in capsys.readouterr().err
    assert cli.main(["triage", "minimize", clean, "--max-attempts", "0"]) == 2
    assert "--max-attempts" in capsys.readouterr().err
    assert cli.main(["triage", "minimize", clean, "--workers", "-1"]) == 2
    assert "--workers" in capsys.readouterr().err
    # An unwritable --output must not discard the minimized spec.
    wedge = write_archive(tmp_path / "wedge.json", wedge_spec())
    assert cli.main(
        ["triage", "minimize", wedge, "--output", str(tmp_path / "no-such-dir" / "out.json")]
    ) == 1
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert json.loads(captured.out)["protocol"] == "pbft"  # spec still emitted


def test_cli_triage_corpus_replay_and_promote(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    corpus_dir = tmp_path / "corpus"
    # Empty corpus: informative, exit 0 (CI-safe before the first finding).
    assert cli.main(["triage", "corpus", "--corpus-dir", str(corpus_dir)]) == 0
    assert "is empty" in capsys.readouterr().out
    corpus = Corpus(corpus_dir)
    wedge = wedge_spec()
    true_signature = signature_of(run_scenario(wedge))
    corpus.add(make_entry("wedge", wedge, true_signature))
    fixed = single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    corpus.add(make_entry("was-fixed", fixed, true_signature))
    exit_code = cli.main(["triage", "corpus", "--corpus-dir", str(corpus_dir)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "still-failing" in captured.out and "fixed" in captured.out
    # The summary must not claim everything behaves as pinned when an
    # entry just went clean.
    assert "await promotion" in captured.out
    assert "--promote was-fixed" in captured.err
    # Promote the fixed entry; the corpus then replays fully green.
    assert cli.main(
        ["triage", "corpus", "--corpus-dir", str(corpus_dir), "--promote", "was-fixed"]
    ) == 0
    assert "promoted" in capsys.readouterr().out
    assert cli.main(["triage", "corpus", "--corpus-dir", str(corpus_dir)]) == 0
    assert "behave as pinned" in capsys.readouterr().out
    assert cli.main(
        ["triage", "corpus", "--corpus-dir", str(corpus_dir), "--promote", "nope"]
    ) == 2


def test_cli_triage_corpus_fails_on_signature_change(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    corpus_dir = tmp_path / "corpus"
    doctored = FailureSignature(
        protocol="pbft", invariants=("liveness-straggler",), stragglers=(0,)
    )
    Corpus(corpus_dir).add(make_entry("drifted", wedge_spec(), doctored))
    assert cli.main(["triage", "corpus", "--corpus-dir", str(corpus_dir)]) == 1
    captured = capsys.readouterr()
    assert "signature-changed" in captured.out
    assert "changed behaviour" in captured.err


def test_cli_triage_handles_corrupt_corpus_without_traceback(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "broken.json").write_text('{"format": 1, "name": "broken"}')
    assert cli.main(["triage", "corpus", "--corpus-dir", str(corpus_dir)]) == 2
    assert "corrupt corpus entry" in capsys.readouterr().err
    assert cli.main(
        ["triage", "corpus", "--corpus-dir", str(corpus_dir), "--promote", "x"]
    ) == 2
    assert "corrupt corpus entry" in capsys.readouterr().err
    archive = write_archive(tmp_path / "wedge.json", wedge_spec())
    assert cli.main(
        ["triage", "minimize", archive, "--ingest", "--corpus-dir", str(corpus_dir)]
    ) == 1
    assert "cannot ingest" in capsys.readouterr().err


def test_cli_triage_without_subcommand_prints_usage(capsys):
    from repro import cli

    assert cli.main(["triage"]) == 2
    assert "triage {minimize,corpus}" in capsys.readouterr().err


def test_cli_fuzz_auto_minimize_skips_unreproducible_findings(
    tmp_path, monkeypatch, first_run_violates, capsys
):
    # Force fake violations through the fuzz run: auto-triage re-runs the
    # specs for real, finds them clean, and must not pollute the corpus.
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    archive_dir = tmp_path / "failures"
    corpus_dir = tmp_path / "corpus"
    exit_code = cli.main(
        [
            "fuzz",
            "--count",
            "1",
            "--seed",
            "1",
            "--duration",
            "0.2",
            "--archive-dir",
            str(archive_dir),
            "--corpus-dir",
            str(corpus_dir),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "could not reproduce" in captured.err
    assert len(list(archive_dir.glob("*.json"))) == 1  # raw archive kept
    assert Corpus(corpus_dir).entries() == []
