"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro import cli
from repro.bench import ablations, experiments


# ---------------------------------------------------------------------------
# parser structure
# ---------------------------------------------------------------------------


def test_parser_knows_all_subcommands():
    parser = cli.build_parser()
    for command in ("list", "complexity", "figure", "ablation", "cluster", "scenario", "fuzz", "triage", "validate"):
        args = parser.parse_args([command] if command not in ("figure", "ablation") else [command, "x"])
        assert args.command == command


def test_main_without_a_command_prints_help_and_fails(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_every_figure_of_the_evaluation_has_a_cli_entry():
    expected = {
        "fig7a-scalability",
        "fig7b-batching",
        "fig7c-throughput-latency",
        "fig7d-transaction-size",
        "fig7e-failures",
        "fig7f-failure-ratio",
        "fig8-spotless-failures",
        "fig9-latency-failures",
        "fig10-parallelism",
        "fig11-byzantine",
        "fig12-timeline",
        "fig13-instances",
        "fig14a-cpu",
        "fig14b-bandwidth",
        "fig14cd-regions",
        "fig15-single-instance",
        "offered-load",
    }
    assert expected == set(cli.FIGURES)
    # One registry: the CLI name is a re-export of the bench/ table.
    assert cli.FIGURES is experiments.FIGURES


def test_every_design_choice_ablation_has_a_cli_entry():
    assert {"commit-rule", "view-sync", "timeouts", "assignment", "fast-path"} == set(cli.ABLATIONS)
    assert cli.ABLATIONS is ablations.ABLATIONS


# ---------------------------------------------------------------------------
# flag inventory: every verb's option strings, dests and defaults, as captured
# from the single-file cli.py this package replaced
# ---------------------------------------------------------------------------

FLAG_INVENTORY = {'': {('{command}',): ('command', None)},
 'ablation': {('--ledger',): ('ledger', None),
              ('--no-cache',): ('no_cache', False),
              ('--no-ledger',): ('no_ledger', False),
              ('--workers',): ('workers', None),
              ('name',): ('name', None)},
 'campaign': {('{campaign_command}',): ('campaign_command', None)},
 'campaign report': {('--top',): ('top', 5),
                     ('--trace',): ('trace', None),
                     ('ledger',): ('ledger', None)},
 'campaign status': {('ledger',): ('ledger', None)},
 'campaign tail': {('--follow',): ('follow', False),
                   ('-n', '--lines'): ('lines', 20),
                   ('ledger',): ('ledger', None)},
 'cluster': {('--batch-size',): ('batch_size', 10),
             ('--clients',): ('clients', 4),
             ('--duration',): ('duration', 1.0),
             ('--outstanding',): ('outstanding', 8),
             ('--protocol',): ('protocol', 'spotless'),
             ('--replicas',): ('replicas', 4),
             ('--seed',): ('seed', 1),
             ('--warmup',): ('warmup', 0.0)},
 'complexity': {},
 'figure': {('--faulty',): ('faulty', None),
            ('--ledger',): ('ledger', None),
            ('--no-cache',): ('no_cache', False),
            ('--no-ledger',): ('no_ledger', False),
            ('--protocols',): ('protocols', None),
            ('--replicas',): ('replicas', None),
            ('--workers',): ('workers', None),
            ('name',): ('name', None)},
 'fuzz': {('--archive-dir',): ('archive_dir', 'fuzz-failures'),
          ('--corpus-dir',): ('corpus_dir', 'fuzz-failures/corpus'),
          ('--count',): ('count', 20),
          ('--duration',): ('duration', 0.4),
          ('--ledger',): ('ledger', None),
          ('--no-cache',): ('no_cache', False),
          ('--no-flight',): ('no_flight', False),
          ('--no-ledger',): ('no_ledger', False),
          ('--no-minimize',): ('no_minimize', False),
          ('--seed',): ('seed', 1),
          ('--workers',): ('workers', None)},
 'list': {},
 'scenario': {('--archive-dir',): ('archive_dir', 'fuzz-failures'),
              ('--checkpoint-interval',): ('checkpoint_interval', None),
              ('--counters',): ('counters', False),
              ('--duration',): ('duration', None),
              ('--f',): ('f', None),
              ('--fault',): ('fault', None),
              ('--ledger',): ('ledger', None),
              ('--lenient-liveness',): ('lenient_liveness', False),
              ('--matrix',): ('matrix', None),
              ('--no-cache',): ('no_cache', False),
              ('--no-flight',): ('no_flight', False),
              ('--no-ledger',): ('no_ledger', False),
              ('--overload',): ('overload', False),
              ('--protocol',): ('protocol', None),
              ('--replay',): ('replay', None),
              ('--seed',): ('seed', None),
              ('--seeds',): ('seeds', None),
              ('--trace',): ('trace', None),
              ('--workers',): ('workers', None)},
 'trace': {('--corpus-dir',): ('corpus_dir', 'fuzz-failures/corpus'),
           ('--from-dump',): ('from_dump', None),
           ('--output',): ('output', 'trace.json'),
           ('--telemetry-interval',): ('telemetry_interval', None),
           ('--timeseries',): ('timeseries', None),
           ('target',): ('target', None)},
 'triage': {('{triage_command}',): ('triage_command', None)},
 'triage corpus': {('--corpus-dir',): ('corpus_dir', 'fuzz-failures/corpus'),
                   ('--no-cache',): ('no_cache', False),
                   ('--promote',): ('promote', None),
                   ('--require-clean',): ('require_clean', False),
                   ('--workers',): ('workers', None)},
 'triage minimize': {('--corpus-dir',): ('corpus_dir', 'fuzz-failures/corpus'),
                     ('--ingest',): ('ingest', False),
                     ('--max-attempts',): ('max_attempts', 256),
                     ('--no-cache',): ('no_cache', False),
                     ('--output',): ('output', None),
                     ('--workers',): ('workers', None),
                     ('spec',): ('spec', None)},
 'validate': {('--duration',): ('duration', 1.0), ('--replicas',): ('replicas', 4)}}


def flag_inventory(parser, prefix=()):
    """{verb path: {option strings, or (dest,) of a positional: (dest, default)}}."""
    inventory = {}
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inventory.update(flag_inventory(sub, prefix + (name,)))
            flags[("{%s}" % action.dest,)] = (action.dest, action.default)
            continue
        flags[tuple(action.option_strings) or (action.dest,)] = (action.dest, action.default)
    inventory[" ".join(prefix)] = flags
    return inventory


def test_no_verb_gained_lost_or_renamed_a_flag():
    inventory = flag_inventory(cli.build_parser())
    assert sorted(inventory) == sorted(FLAG_INVENTORY)
    for verb, flags in FLAG_INVENTORY.items():
        assert inventory[verb] == flags, verb


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def test_list_prints_every_figure_and_ablation(capsys):
    assert cli.main(["list"]) == 0
    output = capsys.readouterr().out
    for name in cli.FIGURES:
        assert name in output
    for name in cli.ABLATIONS:
        assert name in output


def test_complexity_prints_the_figure_1_table(capsys):
    assert cli.main(["complexity"]) == 0
    output = capsys.readouterr().out
    for protocol in ("SpotLess", "Pbft", "RCC", "HotStuff"):
        assert protocol in output


def test_figure_command_prints_the_scalability_series(capsys):
    assert cli.main(["figure", "fig7a-scalability", "--replicas", "4", "16"]) == 0
    output = capsys.readouterr().out
    assert "spotless" in output
    assert "throughput_txn_s" in output


def test_unknown_figure_name_fails_with_exit_code_2(capsys):
    assert cli.main(["figure", "fig99-unknown"]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_ablation_command_prints_the_commit_rule_table(capsys):
    assert cli.main(["ablation", "commit-rule"]) == 0
    output = capsys.readouterr().out
    assert "two-view" in output and "three-view" in output


def test_unknown_ablation_name_fails_with_exit_code_2(capsys):
    assert cli.main(["ablation", "no-such-ablation"]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_cluster_command_runs_a_small_deployment_and_checks_divergence(capsys):
    exit_code = cli.main(
        [
            "cluster",
            "--protocol",
            "spotless",
            "--replicas",
            "4",
            "--batch-size",
            "5",
            "--duration",
            "0.4",
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "non-divergence check: ok" in output
    assert "txn/s" in output


def test_validate_command_reports_rankings(capsys):
    assert cli.main(["validate", "--replicas", "4", "--duration", "0.3"]) == 0
    output = capsys.readouterr().out
    assert "simulator ranking" in output
    assert "pairwise rank agreement" in output


# ---------------------------------------------------------------------------
# dispatch-backed commands: --workers/--seeds, fuzz, replay
# ---------------------------------------------------------------------------


def test_scenario_rejects_seed_together_with_seeds(capsys):
    assert cli.main(["scenario", "--seed", "1", "--seeds", "2", "3"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_scenario_seeds_flag_runs_the_grid_once_per_seed(capsys):
    exit_code = cli.main(
        [
            "scenario",
            "--protocol",
            "pbft",
            "--fault",
            "crash",
            "--duration",
            "0.2",
            "--seeds",
            "4",
            "5",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "pbft-crash-f1-s4" in output and "pbft-crash-f1-s5" in output


def test_scenario_workers_output_matches_serial_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["scenario", "--protocol", "hotstuff", "--fault", "A1", "--duration", "0.2"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    assert cli.main(argv + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    # A second dispatched invocation is served from the cache, same bytes.
    assert cli.main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_scenario_overload_rejects_fault_and_matrix_flags(capsys):
    assert cli.main(["scenario", "--overload", "--fault", "A1"]) == 2
    assert "--overload" in capsys.readouterr().err
    assert cli.main(["scenario", "--overload", "--matrix", "smoke"]) == 2
    assert "--overload" in capsys.readouterr().err


def test_scenario_overload_runs_the_slo_family_for_one_protocol(capsys):
    exit_code = cli.main(["scenario", "--overload", "--protocol", "spotless"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "spotless-overload-f1-s1" in output
    assert "all 1 scenarios clean" in output


def test_figure_all_rejects_the_protocols_flag(capsys):
    assert cli.main(["figure", "all", "--protocols", "spotless"]) == 2
    assert "--protocols" in capsys.readouterr().err


def test_fuzz_command_runs_a_clean_campaign(tmp_path, capsys):
    ledger = tmp_path / "fuzz-ledger.jsonl"
    exit_code = cli.main(
        [
            "fuzz", "--count", "2", "--seed", "1", "--duration", "0.2",
            "--ledger", str(ledger),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "fuzz-1-0" in captured.out and "fuzz-1-1" in captured.out
    assert "all 2 scenarios clean" in captured.out
    # The campaign default-records a ledger; the stderr summary names it.
    assert "dispatch: 2 cells:" in captured.err
    assert str(ledger) in captured.err
    assert ledger.exists()


def test_fuzz_archives_failing_specs_for_replay(tmp_path, first_run_violates, capsys):
    # Force a violation through the dispatch task so the archive/replay
    # plumbing is exercised without depending on a real fuzz-reachable bug.
    import json

    archive_dir = tmp_path / "failures"
    exit_code = cli.main(
        [
            "fuzz",
            "--count",
            "2",
            "--seed",
            "1",
            "--duration",
            "0.2",
            "--archive-dir",
            str(archive_dir),
            # Raw archive plumbing under test; the auto-minimize path has
            # its own coverage in tests/test_triage.py.
            "--no-minimize",
        ]
    )
    err = capsys.readouterr().err
    assert exit_code == 1
    assert "2 of 2 fuzz scenarios violated invariants" in err
    archives = sorted(archive_dir.glob("*.json"))
    assert len(archives) == 2
    archived = json.loads(archives[0].read_text())
    assert archived["violations"][0]["invariant"] == "agreement"
    # The archived spec replays as-is (only each spec's first run is forced).
    assert cli.main(["scenario", "--replay", str(archives[0])]) == 0
    assert "replaying archived scenario" in capsys.readouterr().out


def test_scenario_replay_rejects_conflicting_flags_and_bad_files(tmp_path, capsys):
    assert cli.main(["scenario", "--replay", "nope.json", "--f", "2"]) == 2
    assert "--replay runs the archived spec as-is" in capsys.readouterr().err
    # Spec-mutating overrides would defeat the bit-for-bit reproduction.
    assert cli.main(["scenario", "--replay", "nope.json", "--checkpoint-interval", "32"]) == 2
    assert "--checkpoint-interval" in capsys.readouterr().err
    assert cli.main(["scenario", "--replay", "nope.json", "--lenient-liveness"]) == 2
    assert "--lenient-liveness" in capsys.readouterr().err
    assert cli.main(["scenario", "--replay", str(tmp_path / "missing.json")]) == 2
    assert "cannot replay" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"protocol": "raft", "name": "x"}')
    assert cli.main(["scenario", "--replay", str(bad)]) == 2
    assert "cannot replay" in capsys.readouterr().err
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    assert cli.main(["scenario", "--replay", str(not_an_object)]) == 2
    assert "cannot replay" in capsys.readouterr().err


def test_negative_count_and_workers_fail_cleanly(capsys):
    assert cli.main(["fuzz", "--count", "-1"]) == 2
    assert "--count must be non-negative" in capsys.readouterr().err
    assert cli.main(["scenario", "--workers", "-1"]) == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err
    assert cli.main(["figure", "fig7b-batching", "--workers", "-1"]) == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err
    # --workers 0 used to be silently coerced to one worker.
    assert cli.main(["fuzz", "--count", "1", "--workers", "0"]) == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err
    # A duration below the event-rounding floor would collapse fault
    # windows to zero width deep inside the fuzzer.
    assert cli.main(["fuzz", "--count", "1", "--duration", "1e-6"]) == 2
    assert "--duration must be at least" in capsys.readouterr().err


def test_replay_rejects_duration_override(capsys):
    assert cli.main(["scenario", "--replay", "nope.json", "--duration", "2.0"]) == 2
    assert "--duration" in capsys.readouterr().err


def test_replay_with_workers_bypasses_the_result_cache(tmp_path, monkeypatch, capsys):
    # A cached "reproduction" would execute nothing; replay must simulate.
    import json

    from repro.scenarios import single_fault_spec

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    archive = tmp_path / "spec.json"
    archive.write_text(json.dumps(spec.to_json_dict()))
    assert cli.main(["scenario", "--replay", str(archive), "--workers", "1"]) == 0
    first = capsys.readouterr()
    assert "1 cells: 0 cached, 1 executed" in first.err
    assert cli.main(["scenario", "--replay", str(archive), "--workers", "1"]) == 0
    second = capsys.readouterr()
    assert "1 cells: 0 cached, 1 executed" in second.err
    assert second.out == first.out


def test_figure_faulty_zero_matches_between_serial_and_dispatch(tmp_path, monkeypatch, capsys):
    # `--faulty 0` used to run faulty=1 serially (the `or 1` default) but
    # faulty=0 when dispatched; both paths share _figure_kwargs now.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["figure", "fig12-timeline", "--faulty", "0"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["figure", "fig12-timeline", "--faulty", "0", "--workers", "1"]) == 0
    assert capsys.readouterr().out == serial


def test_figure_all_is_rejected_with_figure_specific_flags(capsys):
    assert cli.main(["figure", "all", "--replicas", "4"]) == 2
    assert "figure-specific" in capsys.readouterr().err


def test_ablation_dispatch_matches_direct_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["ablation", "commit-rule"]) == 0
    direct = capsys.readouterr().out
    assert cli.main(["ablation", "commit-rule", "--workers", "1"]) == 0
    dispatched = capsys.readouterr().out
    assert dispatched == direct
    assert cli.main(["ablation", "no-such", "--workers", "1"]) == 2
    assert "unknown name" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "fig7b-batching"],
        ["ablation", "commit-rule"],
        ["scenario", "--protocol", "pbft", "--fault", "crash", "--duration", "0.3"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_the_same_bytes_however_the_grid_is_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    outputs = []
    for how in ([], ["--workers", "1"], ["--workers", "2", "--no-cache"]):
        assert cli.main(argv + how) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "flag, value, taker",
    [
        ("--replicas", "4", "fig7a-scalability"),
        ("--faulty", "1", "fig12-timeline"),
        ("--protocols", "pbft", "offered-load"),
    ],
)
def test_a_figure_specific_flag_on_the_wrong_figure_is_rejected(flag, value, taker, capsys):
    # Used to be silently ignored on a named figure, yet rejected with `all`.
    for name in ("fig7b-batching", "all"):
        assert cli.main(["figure", name, flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and taker in captured.err
        assert captured.out == ""
