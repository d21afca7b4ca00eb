"""The chaos verbs: ``scenario`` (one scenario, a matrix, the overload
family or a replay) and ``fuzz`` (a randomized campaign)."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.cli.grid import campaign_ledger, exit_code, open_cache, run_grid
from repro.cli.trace import SPEC_FILE_ERRORS, load_replay_spec, traced_run


def _run_specs(specs: Sequence[object], args: argparse.Namespace, ledger, cache: bool = True):
    """Run scenario specs as one grid; returns ``(outcomes, crashed)``.

    The flight recorder rides along unless ``--no-flight``, so violating
    cells carry a trace dump back.  The result cache comes with ``--workers``.
    """
    payloads = list(specs) if args.no_flight else [{"spec": spec, "flight": True} for spec in specs]
    return run_grid(
        "scenario",
        payloads,
        args,
        cache=cache and args.workers is not None,
        ledger=ledger,
        announce=args.workers is not None or ledger is not None,
    )


def _report(
    outcomes: Sequence[object],
    crashed: Sequence[object],
    *,
    on_failures: Callable[[List[object]], None],
    clean: str,
    counters: Optional[bool] = None,
) -> int:
    """Print the outcome of a scenario grid and return the exit code.

    The matrix table goes to stdout; results that violated an invariant are
    handed to ``on_failures``; ``clean`` (formatted with the number of
    scenarios) is the closing line of a run with nothing to report.
    ``counters`` adds the liveness-counter summary (True: per replica).
    """
    from repro.scenarios import format_matrix

    crashed_at = {failure.index for failure in crashed}
    results = [outcome for index, outcome in enumerate(outcomes) if index not in crashed_at]
    print(format_matrix(results))
    if counters is not None:
        _print_counters(results, per_replica=counters)
    failures = [result for result in results if result.violations]
    if failures:
        on_failures(failures)
    code = exit_code(crashed, failed=bool(failures))
    if code == 0:
        print(f"\n{clean.format(len(results))}")
    return code


def _print_counters(results: List[object], per_replica: bool = False) -> None:
    """Human-readable liveness-counter summary below the matrix table.

    The aggregate line surfaces :attr:`ScenarioResult.counters` for every
    result that recorded any; ``per_replica`` expands each scenario into one
    line per replica from ``counters_per_replica``.
    """
    shown_header = False
    for result in results:
        if not result.counters:
            continue
        if not shown_header:
            print("\nliveness counters (summed over replicas):")
            shown_header = True
        rendered = " ".join(
            f"{name}={value}" for name, value in sorted(result.counters.items())
        )
        print(f"  {result.spec.name}: {rendered}")
        if per_replica:
            for replica_id, counters in enumerate(result.counters_per_replica):
                row = " ".join(f"{name}={value}" for name, value in sorted(counters.items()))
                print(f"    r{replica_id}: {row}")


def _conflicts(args: argparse.Namespace, reason: str, flags: Sequence[str]) -> bool:
    """Refuse flags a selected mode would silently ignore.

    Prints ``<reason>; drop <the flags that were given>`` and returns True
    when any of ``flags`` is set.
    """
    given = []
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and value is not False and value != []:
            given.append(f"--{flag}")
    if given:
        print(f"{reason}; drop {', '.join(given)}", file=sys.stderr)
    return bool(given)


def _unknown(kind: str, value: str, known: Sequence[str]) -> bool:
    if value in known:
        return False
    print(f"unknown {kind} {value!r}; choose one of: {', '.join(known)}", file=sys.stderr)
    return True


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        FAULT_KINDS,
        PROTOCOLS,
        overload_spec,
        scenario_matrix,
        single_fault_spec,
    )

    if args.seed is not None and args.seeds:
        print("--seed and --seeds are mutually exclusive", file=sys.stderr)
        return 2
    seeds = tuple(args.seeds) if args.seeds else (args.seed if args.seed is not None else 1,)
    duration = args.duration if args.duration is not None else 0.4
    f = args.f if args.f is not None else 1

    if args.replay is not None:
        # Anything that would alter the archived spec (including the
        # checkpoint/liveness overrides) defeats the point of a replay:
        # the run must reproduce the archive bit-for-bit.
        if _conflicts(
            args,
            "--replay runs the archived spec as-is",
            ("matrix", "protocol", "fault", "f", "seed", "seeds", "duration",
             "checkpoint-interval", "lenient-liveness", "overload"),
        ):
            return 2
        try:
            spec = load_replay_spec(args.replay)
        except SPEC_FILE_ERRORS as error:
            print(f"cannot replay {args.replay!r}: {error}", file=sys.stderr)
            return 2
        specs = [spec]
        print(f"replaying archived scenario {spec.name!r} from {args.replay}")
    elif args.overload:
        # Overload is its own scenario family: open-loop load + SLO oracle,
        # no fault events.  --fault would silently do nothing, so reject it.
        if _conflicts(args, "--overload builds its own load schedule", ("matrix", "fault")):
            return 2
        protocols = (args.protocol,) if args.protocol is not None else PROTOCOLS
        if any(_unknown("protocol", protocol, PROTOCOLS) for protocol in protocols):
            return 2
        overload_duration = args.duration if args.duration is not None else 1.0
        specs = [
            overload_spec(protocol, f=f, duration=overload_duration, seed=seed)
            for protocol in protocols
            for seed in seeds
        ]
        print(f"overload-and-recover family: {len(specs)} runs")
    elif args.matrix is not None:
        # The matrix fixes its own grid; silently ignoring the single-scenario
        # flags would let `--matrix smoke --f 2` masquerade as an f=2 run.
        if _conflicts(args, "--matrix selects the whole grid", ("protocol", "fault", "f")):
            return 2
        f_values = (1,) if args.matrix == "smoke" else (1, 2)
        specs = scenario_matrix(f_values=f_values, duration=duration, seeds=seeds)
        print(f"scenario matrix {args.matrix!r}: {len(specs)} runs")
    else:
        protocol = args.protocol if args.protocol is not None else "spotless"
        fault = args.fault if args.fault is not None else "A1"
        if _unknown("protocol", protocol, PROTOCOLS) or _unknown("fault", fault, FAULT_KINDS):
            return 2
        specs = [
            single_fault_spec(protocol, fault, f=f, duration=duration, seed=seed)
            for seed in seeds
        ]
    overrides = {}
    if args.checkpoint_interval is not None:
        overrides["checkpoint_interval"] = args.checkpoint_interval
    if args.lenient_liveness:
        overrides["strict_liveness"] = False
    if overrides:
        specs = [replace(spec, **overrides) for spec in specs]
    if args.trace is not None:
        if len(specs) != 1:
            print(
                f"--trace records one scenario, got {len(specs)}; narrow the selection",
                file=sys.stderr,
            )
            return 2
        if args.workers is not None:
            print("--trace runs in-process; drop --workers", file=sys.stderr)
            return 2
        result, events, _tracer, _cluster = traced_run(specs[0], args.trace)
        print(
            f"wrote {args.trace}: {events} trace events (open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
        outcomes, crashed = [result], []
    else:
        # Only the matrix is a campaign worth a durable ledger; replays and
        # single scenarios stay ledger-free unless --ledger asks for one.
        ledger = None
        if args.matrix is not None or args.ledger:
            kind = f"scenario-{args.matrix}" if args.matrix is not None else "scenario"
            ledger = campaign_ledger(args, kind, meta={"matrix": args.matrix, "seeds": list(seeds)})
        # A replay must actually re-run the simulation — a cache hit would
        # "reproduce" the archived violation without executing anything.
        outcomes, crashed = _run_specs(specs, args, ledger, cache=args.replay is None)

    def archive_flight_dumps(failures: List[object]) -> None:
        violations = [violation for result in failures for violation in result.violations]
        print(f"\n{len(violations)} invariant violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        archive_dir = Path(args.archive_dir)
        for result in failures:
            dump = result.trace_dump
            if dump is None:
                continue
            archive_dir.mkdir(parents=True, exist_ok=True)
            path = archive_dir / f"{result.spec.name}-flight.json"
            with path.open("w", encoding="utf-8") as handle:
                json.dump(dump, handle, sort_keys=True)
            print(
                f"  flight recorder: {len(dump['records'])} trailing records -> {path} "
                f"(render with `repro trace --from-dump {path}`)",
                file=sys.stderr,
            )

    return _report(
        outcomes,
        crashed,
        on_failures=archive_flight_dumps,
        clean="invariant oracle: all {} scenarios clean",
        counters=args.counters,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.dispatch import MIN_FUZZ_DURATION, fuzz_matrix

    if args.count < 0:
        print("--count must be non-negative", file=sys.stderr)
        return 2
    if args.duration < MIN_FUZZ_DURATION:
        print(f"--duration must be at least {MIN_FUZZ_DURATION}", file=sys.stderr)
        return 2
    specs = fuzz_matrix(args.count, seed=args.seed, duration=args.duration)
    print(f"fuzz campaign: {len(specs)} randomized multi-fault scenarios (seed {args.seed})")
    ledger = campaign_ledger(
        args, f"fuzz-{args.seed}", meta={"seed": args.seed, "count": args.count}
    )
    outcomes, crashed = _run_specs(specs, args, ledger)

    def archive_and_triage(failures: List[object]) -> None:
        archive_dir = Path(args.archive_dir)
        archive_dir.mkdir(parents=True, exist_ok=True)
        total = len(outcomes) - len(crashed)
        print(f"\n{len(failures)} of {total} fuzz scenarios violated invariants:", file=sys.stderr)
        for result in failures:
            archive = {
                "spec": result.spec.to_json_dict(),
                "violations": [v.to_json_dict() for v in result.violations],
            }
            if result.trace_dump is not None:
                # The flight recorder's trailing window rides along in the
                # archive, so the failure's last moments are inspectable
                # (`repro trace --from-dump`) even after the bug is fixed.
                archive["trace"] = result.trace_dump
            path = archive_dir / f"{result.spec.name}.json"
            with path.open("w", encoding="utf-8") as handle:
                json.dump(archive, handle, indent=2, sort_keys=True)
            print(
                f"  {result.spec.name}: {len(result.violations)} violation(s), "
                f"replay with `repro scenario --replay {path}`",
                file=sys.stderr,
            )
        if not args.no_minimize:
            _triage_failures(args, failures)

    return _report(
        outcomes,
        crashed,
        on_failures=archive_and_triage,
        clean="fuzz: all {} scenarios clean",
    )


def _triage_failures(args: argparse.Namespace, failures: List[object]) -> None:
    """Minimize every failing fuzz cell and pin new findings in the corpus.

    Minimizations are dispatched as ``triage-minimize`` cells: with
    ``--workers`` several findings minimize side by side, and a whole
    unchanged minimization re-serves from the result cache.  Findings that
    no longer reproduce (the archive predates a fix) are reported, not
    ingested.
    """
    from repro.dispatch import Dispatcher
    from repro.triage import Corpus

    payloads = [
        {"spec": result.spec.to_json_dict(), "cache": not args.no_cache} for result in failures
    ]
    dispatcher = Dispatcher(workers=args.workers, cache=open_cache(args))
    minimized = dispatcher.run("triage-minimize", payloads)
    corpus = Corpus(Path(args.corpus_dir))
    print("\ntriage:", file=sys.stderr)
    for result, minimization in zip(failures, minimized):
        if not minimization.reproduced:
            print(
                f"  {result.spec.name}: could not reproduce the failure on re-run; "
                f"not ingested (archive kept)",
                file=sys.stderr,
            )
            continue
        archive = str(Path(args.archive_dir) / f"{result.spec.name}.json")
        try:
            entry, created = corpus.ingest(
                minimization.minimized, minimization.signature, source=archive
            )
        except ValueError as error:
            # A corrupt corpus blocks pinning, not the campaign: the raw
            # archive written above still holds the finding.
            print(f"  {result.spec.name}: cannot ingest: {error}", file=sys.stderr)
            continue
        spec = minimization.minimized
        if created:
            print(
                f"  {result.spec.name}: minimized to {len(spec.events)} event(s) / "
                f"{spec.duration:g}s in {minimization.attempts} runs, pinned as corpus "
                f"entry {entry.name!r} ({corpus.path_for(entry.name)})",
                file=sys.stderr,
            )
        else:
            print(
                f"  {result.spec.name}: duplicate of corpus entry {entry.name!r} "
                f"(signature {entry.signature.key()})",
                file=sys.stderr,
            )
