"""Command-line interface for the SpotLess reproduction.

The CLI exposes the experiment harness without writing any Python::

    python -m repro list
    python -m repro complexity
    python -m repro figure fig7a-scalability --replicas 4 16 32
    python -m repro figure all --workers 4
    python -m repro ablation commit-rule
    python -m repro cluster --protocol spotless --replicas 4 --duration 2
    python -m repro scenario --matrix smoke
    python -m repro scenario --matrix full --workers 4 --seeds 1 2 3
    python -m repro scenario --protocol rcc --fault A3 --f 1 --duration 0.5
    python -m repro scenario --overload --protocol spotless
    python -m repro scenario --replay fuzz-failures/fuzz-1-17.json
    python -m repro scenario --protocol pbft --fault crash --counters
    python -m repro trace fuzz-1-42-min --output trace.json
    python -m repro figure offered-load --protocols spotless pbft
    python -m repro fuzz --count 50 --seed 1
    python -m repro campaign status campaign-ledgers/fuzz-1-20260808-120000-1234.jsonl
    python -m repro campaign report campaign-ledgers/fuzz-1-20260808-120000-1234.jsonl
    python -m repro triage minimize fuzz-failures/fuzz-1-42.json --ingest
    python -m repro triage corpus --workers 4
    python -m repro validate

``figure`` names map one-to-one onto the per-figure experiment functions in
:mod:`repro.bench.experiments`; ``ablation`` names map onto
:mod:`repro.bench.ablations`.  Output is the same aligned table the
benchmark harness prints, so the numbers can be compared directly against
the corresponding figure in the paper — EXPERIMENTS.md maps every CLI name
to its figure.  ``--workers`` shards any grid-shaped command across worker
processes through :mod:`repro.dispatch` with a content-addressed result
cache; serial and parallel runs print byte-identical tables.  Campaign-shaped
verbs (``fuzz``, ``scenario --matrix``, ``figure all``, ``ablation all``)
additionally append a JSONL campaign ledger under ``campaign-ledgers/``
(``--ledger FILE`` pins the path, ``--no-ledger`` disables it); the
``campaign`` verb family reads those files back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.complexity import format_complexity_table
from repro.analysis.report import format_table
from repro.analysis.validation import cross_validate_protocols, validation_report
from repro.bench import ablations, experiments
from repro.bench.cluster import SimulatedCluster

#: Default regression-corpus location shared by the fuzz/triage verbs.
#: Kept as a literal (not an import of repro.triage.DEFAULT_CORPUS_DIR) so
#: building the parser never pays for the triage imports.
DEFAULT_CORPUS_DIR = str(Path("fuzz-failures") / "corpus")


def _check_workers(args: argparse.Namespace) -> Optional[str]:
    """Validate ``--workers``; returns an error message or None.

    ``--workers 0`` used to be silently coerced to one worker by the
    dispatcher — an accidental serial run instead of a clear error.
    """
    if args.workers is not None and args.workers < 1:
        return "--workers must be a positive integer"
    return None


def _campaign_ledger(args: argparse.Namespace, kind: str, meta: Optional[Dict[str, object]] = None):
    """The campaign ledger for one CLI campaign path (default ON).

    ``--ledger FILE`` pins the path; ``--no-ledger`` disables recording;
    otherwise an auto-named file lands under ``campaign-ledgers/``.
    """
    if getattr(args, "no_ledger", False):
        return None
    from repro.dispatch.ledger import CampaignLedger, default_ledger_path

    explicit = getattr(args, "ledger", None)
    path = Path(explicit) if explicit else default_ledger_path(kind)
    return CampaignLedger(path, meta=meta)


def _report_crashed_cells(crashed: List[object]) -> None:
    """Stderr summary of cells that raised (campaign kept going)."""
    print(f"\n{len(crashed)} cell(s) crashed (campaign continued):", file=sys.stderr)
    for failure in crashed:
        print(f"  {failure}", file=sys.stderr)


def _figure_kwargs(name: str, args: argparse.Namespace) -> Dict[str, object]:
    """Figure-specific CLI flags as experiment kwargs.

    The single source of truth for both execution paths: the serial
    ``FIGURES`` entries and the dispatcher payloads go through this, so
    `--workers` can never change which experiment variant runs.
    """
    kwargs: Dict[str, object] = {}
    if name == "fig7a-scalability" and args.replicas:
        kwargs["replica_counts"] = list(args.replicas)
    if name == "fig12-timeline" and args.faulty is not None:
        kwargs["faulty_replicas"] = args.faulty
    if name == "offered-load" and args.protocols:
        kwargs["protocols"] = list(args.protocols)
    return kwargs


def _figure_runner(name: str) -> Callable[[argparse.Namespace], List[Dict[str, object]]]:
    """Serial ``run`` entry for one figure — same resolution as dispatch.

    Both paths go through ``experiments.run_figure(name, _figure_kwargs())``,
    so ``--workers`` can never change which experiment variant runs.
    """
    return lambda args: experiments.run_figure(name, _figure_kwargs(name, args))


def _ablation_runner(name: str) -> Callable[[argparse.Namespace], List[Dict[str, object]]]:
    """Serial ``run`` entry for one ablation — same resolution as dispatch."""
    return lambda args: ablations.run_ablation(name)


# Mapping from CLI figure name to (experiment callable, key-column order).
FIGURES: Dict[str, Dict[str, object]] = {
    "fig7a-scalability": {
        "run": _figure_runner("fig7a-scalability"),
        "columns": ["replicas", "protocol", "throughput_txn_s", "latency_s", "bottleneck"],
        "paper": "Figure 7(a): throughput versus the number of replicas",
    },
    "fig7b-batching": {
        "run": _figure_runner("fig7b-batching"),
        "columns": ["batch_size", "protocol", "throughput_txn_s", "latency_s"],
        "paper": "Figure 7(b): throughput versus batch size",
    },
    "fig7c-throughput-latency": {
        "run": _figure_runner("fig7c-throughput-latency"),
        "columns": ["client_batches", "protocol", "throughput_txn_s", "latency_s"],
        "paper": "Figure 7(c): latency versus throughput",
    },
    "fig7d-transaction-size": {
        "run": _figure_runner("fig7d-transaction-size"),
        "columns": ["transaction_bytes", "protocol", "throughput_txn_s"],
        "paper": "Figure 7(d): throughput versus transaction size",
    },
    "fig7e-failures": {
        "run": _figure_runner("fig7e-failures"),
        "columns": ["faulty", "protocol", "throughput_txn_s"],
        "paper": "Figure 7(e): throughput versus the number of failures",
    },
    "fig7f-failure-ratio": {
        "run": _figure_runner("fig7f-failure-ratio"),
        "columns": ["ratio", "faulty", "protocol", "throughput_txn_s"],
        "paper": "Figure 7(f): throughput versus the ratio of failures out of f",
    },
    "fig8-spotless-failures": {
        "run": _figure_runner("fig8-spotless-failures"),
        "columns": ["replicas", "faulty", "protocol", "throughput_txn_s"],
        "paper": "Figure 8: SpotLess under failures as a function of n",
    },
    "fig9-latency-failures": {
        "run": _figure_runner("fig9-latency-failures"),
        "columns": ["faulty", "client_batches", "protocol", "throughput_txn_s", "latency_s"],
        "paper": "Figure 9: throughput-latency of SpotLess and RCC under failures",
    },
    "fig10-parallelism": {
        "run": _figure_runner("fig10-parallelism"),
        "columns": ["faulty", "client_batches", "protocol", "throughput_txn_s", "latency_s"],
        "paper": "Figure 10: throughput/latency versus client batches per primary",
    },
    "fig11-byzantine": {
        "run": _figure_runner("fig11-byzantine"),
        "columns": ["faulty", "protocol", "attack", "throughput_txn_s"],
        "paper": "Figure 11: SpotLess under attacks A1-A4",
    },
    "fig12-timeline": {
        "run": _figure_runner("fig12-timeline"),
        "columns": ["protocol", "time_s", "throughput_txn_s"],
        "paper": "Figure 12: real-time throughput after failure injection",
    },
    "fig13-instances": {
        "run": _figure_runner("fig13-instances"),
        "columns": ["instances", "protocol", "throughput_txn_s"],
        "paper": "Figure 13: throughput versus the number of concurrent instances",
    },
    "fig14a-cpu": {
        "run": _figure_runner("fig14a-cpu"),
        "columns": ["cores", "protocol", "throughput_txn_s"],
        "paper": "Figure 14(a): impact of computing power",
    },
    "fig14b-bandwidth": {
        "run": _figure_runner("fig14b-bandwidth"),
        "columns": ["bandwidth_mbit", "protocol", "throughput_txn_s"],
        "paper": "Figure 14(b): impact of network bandwidth",
    },
    "fig14cd-regions": {
        "run": _figure_runner("fig14cd-regions"),
        "columns": ["batch_size", "regions", "protocol", "throughput_txn_s"],
        "paper": "Figure 14(c,d): impact of geo-distribution",
    },
    "fig15-single-instance": {
        "run": _figure_runner("fig15-single-instance"),
        "columns": ["ratio", "protocol", "throughput_txn_s"],
        "paper": "Figure 15: single-instance SpotLess versus HotStuff under failures",
    },
    "offered-load": {
        "run": _figure_runner("offered-load"),
        "columns": [
            "protocol",
            "phase",
            "offered_rate",
            "measured_offered",
            "throughput_txn_s",
            "p50_ms",
            "p99_ms",
            "queue_depth",
            "slo",
        ],
        "paper": "Figures 7(c)/9/10 mechanism: open-loop offered-load sweep past saturation",
    },
}

ABLATIONS: Dict[str, Dict[str, object]] = {
    "commit-rule": {
        "run": _ablation_runner("commit-rule"),
        "columns": ["commit_rule", "commits_at_A", "commits_at_B", "conflicting_commits", "safe"],
        "paper": "Example 3.6: the three-consecutive-view commit rule versus a two-view rule",
    },
    "view-sync": {
        "run": _ablation_runner("view-sync"),
        "columns": ["view_sync_mode", "view_lag_at_heal", "view_lag_after_recovery", "caught_up"],
        "paper": "Rapid View Synchronization versus a GST-style pacemaker",
    },
    "timeouts": {
        "run": _ablation_runner("timeouts"),
        "columns": [
            "timeout_policy",
            "confirmed_total",
            "post_failure_min",
            "post_failure_max",
            "post_failure_spread",
        ],
        "paper": "Constant-ε adaptive timeouts versus exponential back-off (Figure 12 mechanism)",
    },
    "assignment": {
        "run": _ablation_runner("assignment"),
        "columns": [
            "assignment_policy",
            "instances",
            "least_loaded_commits",
            "most_loaded_commits",
            "imbalance_ratio",
        ],
        "paper": "Digest-based request assignment versus client-to-instance binding",
    },
    "fast-path": {
        "run": _ablation_runner("fast-path"),
        "columns": ["fast_path", "mean_latency_s", "throughput_txn_s", "fast_path_proposals"],
        "paper": "Geo fast path (Section 6.1 optimisation)",
    },
}


def _cmd_list(args: argparse.Namespace) -> int:
    print("figures:")
    for name, spec in FIGURES.items():
        print(f"  {name:26} {spec['paper']}")
    print("ablations:")
    for name, spec in ABLATIONS.items():
        print(f"  {name:26} {spec['paper']}")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    print(format_complexity_table())
    return 0


def _run_named(table: Dict[str, Dict[str, object]], name: str, args: argparse.Namespace) -> int:
    spec = table.get(name)
    if spec is None:
        known = ", ".join(sorted(table))
        print(f"unknown name {name!r}; choose one of: {known}", file=sys.stderr)
        return 2
    print(spec["paper"])
    rows = spec["run"](args)
    print(format_table(rows, spec["columns"]))
    return 0


def _dispatch_named(
    table: Dict[str, Dict[str, object]], task: str, args: argparse.Namespace
) -> int:
    """Run one or all named figures/ablations through the dispatcher."""
    from repro.dispatch import CellFailure, Dispatcher, ResultCache

    error = _check_workers(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.name == "all":
        names = list(table)
        if task == "figure" and (args.replicas or args.faulty is not None or args.protocols):
            print(
                "--replicas/--faulty/--protocols are figure-specific; drop them with `all`",
                file=sys.stderr,
            )
            return 2
    else:
        if args.name not in table:
            known = ", ".join(sorted(table))
            print(f"unknown name {args.name!r}; choose one of: {known}", file=sys.stderr)
            return 2
        names = [args.name]
    payloads = []
    for name in names:
        payload: Dict[str, object] = {"name": name}
        if task == "figure":
            payload["kwargs"] = _figure_kwargs(name, args)
        payloads.append(payload)
    cache = None if args.no_cache else ResultCache()
    # `all` is a campaign (many cells, worth a durable record); a single
    # named figure/ablation through --workers is not unless --ledger asks.
    ledger = None
    if args.name == "all" or getattr(args, "ledger", None):
        ledger = _campaign_ledger(args, task)
    dispatcher = Dispatcher(
        workers=args.workers, cache=cache, ledger=ledger, on_error="collect"
    )
    all_rows = dispatcher.run(task, payloads)
    crashed = []
    for index, (name, rows) in enumerate(zip(names, all_rows)):
        if index:
            print()
        spec = table[name]
        print(spec["paper"])
        if isinstance(rows, CellFailure):
            crashed.append(rows)
            print(f"  FAILED: {rows.error_type}: {rows.message}")
            continue
        print(format_table(rows, spec["columns"]))
    print(f"dispatch: {dispatcher.last_stats.summary()}", file=sys.stderr)
    if ledger is not None:
        print(
            f"campaign ledger: {ledger.path} (inspect with `repro campaign report {ledger.path}`)",
            file=sys.stderr,
        )
    if crashed:
        _report_crashed_cells(crashed)
        return 1
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "all" or args.workers is not None or args.ledger:
        return _dispatch_named(FIGURES, "figure", args)
    return _run_named(FIGURES, args.name, args)


def _cmd_ablation(args: argparse.Namespace) -> int:
    if args.name == "all" or args.workers is not None or args.ledger:
        return _dispatch_named(ABLATIONS, "ablation", args)
    return _run_named(ABLATIONS, args.name, args)


def _cmd_cluster(args: argparse.Namespace) -> int:
    cluster = SimulatedCluster.for_protocol(
        args.protocol,
        num_replicas=args.replicas,
        batch_size=args.batch_size,
        clients=args.clients,
        outstanding_per_client=args.outstanding,
        seed=args.seed,
    )
    result = cluster.run(duration=args.duration, warmup=args.warmup)
    print(
        f"{args.protocol} with n={args.replicas}, batch={args.batch_size}, "
        f"{args.clients} clients x {args.outstanding} outstanding:"
    )
    print(f"  {result.summary()}")
    print(f"  messages sent: {result.messages_sent:,.0f}, bytes sent: {result.bytes_sent:,.0f}")
    cluster.assert_no_divergence()
    print("  non-divergence check: ok")
    return 0


def _run_specs(
    specs: List[object],
    args: argparse.Namespace,
    use_cache: bool = True,
    flight: bool = False,
    ledger: Optional[object] = None,
) -> List[object]:
    """Run scenario specs serially or through the dispatcher.

    The bare serial path (no ``--workers``, no ledger) is the historical
    in-process loop; ``--workers`` and/or a campaign ledger route the same
    specs through :func:`repro.scenarios.run_matrix`'s dispatcher path,
    which adds the worker pool, the result cache and the ledger's event
    stream but returns identical results, so both print byte-identical
    tables.  The dispatch accounting goes to stderr to keep stdout
    comparable.  Cells that raise come back as
    :class:`~repro.dispatch.CellFailure` records instead of aborting the
    campaign — callers partition them out of the results.
    """
    from repro.scenarios import run_matrix

    if args.workers is None and ledger is None:
        return run_matrix(specs, flight=flight)
    from repro.dispatch import Dispatcher, ResultCache

    cache = None if (args.no_cache or not use_cache or args.workers is None) else ResultCache()
    dispatcher = Dispatcher(
        workers=args.workers, cache=cache, ledger=ledger, on_error="collect"
    )
    results = run_matrix(specs, dispatcher=dispatcher, flight=flight)
    # last_stats is None when a test stubs run_matrix without invoking the
    # dispatcher — nothing ran, so there is no accounting to print.
    if dispatcher.last_stats is not None:
        print(f"dispatch: {dispatcher.last_stats.summary()}", file=sys.stderr)
        if ledger is not None:
            print(
                f"campaign ledger: {ledger.path} "
                f"(inspect with `repro campaign report {ledger.path}`)",
                file=sys.stderr,
            )
    return results


def _load_replay_spec(path: str):
    """Load a ScenarioSpec from a replay/archive JSON file.

    Accepts both a bare serialized spec and the fuzz archive envelope
    (``{"spec": {...}, "violations": [...]}``).
    """
    from repro.scenarios import ScenarioSpec

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("replay file must hold a JSON object (a spec or a fuzz archive)")
    if "spec" in data and isinstance(data["spec"], dict):
        data = data["spec"]
    return ScenarioSpec.from_json_dict(data)


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


def _archive_flight_dumps(results: List[object], archive_dir: Path) -> None:
    """Write the flight-recorder dump of every violating result to disk."""
    for result in results:
        if not result.violations or result.trace_dump is None:
            continue
        archive_dir.mkdir(parents=True, exist_ok=True)
        path = archive_dir / f"{result.spec.name}-flight.json"
        with path.open("w", encoding="utf-8") as handle:
            json.dump(result.trace_dump, handle, sort_keys=True)
        dump = result.trace_dump
        print(
            f"  flight recorder: {len(dump['records'])} trailing records -> {path} "
            f"(render with `repro trace --from-dump {path}`)",
            file=sys.stderr,
        )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.scenarios import (
        FAULT_KINDS,
        PROTOCOLS,
        format_matrix,
        overload_spec,
        scenario_matrix,
        single_fault_spec,
    )

    error = _check_workers(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.seed is not None and args.seeds:
        print("--seed and --seeds are mutually exclusive", file=sys.stderr)
        return 2
    seeds = tuple(args.seeds) if args.seeds else (args.seed if args.seed is not None else 1,)
    duration = args.duration if args.duration is not None else 0.4

    if args.replay is not None:
        # Anything that would alter the archived spec (including the
        # checkpoint/liveness overrides) defeats the point of a replay:
        # the run must reproduce the archive bit-for-bit.
        conflicting = [
            f"--{flag}"
            for flag, value in (
                ("matrix", args.matrix),
                ("protocol", args.protocol),
                ("fault", args.fault),
                ("f", args.f),
                ("seed", args.seed),
                ("seeds", args.seeds),
                ("duration", args.duration),
                ("checkpoint-interval", args.checkpoint_interval),
                ("lenient-liveness", args.lenient_liveness or None),
                ("overload", args.overload or None),
            )
            if value is not None and value != []
        ]
        if conflicting:
            print(
                f"--replay runs the archived spec as-is; drop {', '.join(conflicting)}",
                file=sys.stderr,
            )
            return 2
        try:
            spec = _load_replay_spec(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"cannot replay {args.replay!r}: {error}", file=sys.stderr)
            return 2
        specs = [spec]
        print(f"replaying archived scenario {spec.name!r} from {args.replay}")
    elif args.overload:
        # Overload is its own scenario family: open-loop load + SLO oracle,
        # no fault events.  --fault would silently do nothing, so reject it.
        conflicting = [
            f"--{flag}"
            for flag, value in (("matrix", args.matrix), ("fault", args.fault))
            if value is not None
        ]
        if conflicting:
            print(
                f"--overload builds its own load schedule; drop {', '.join(conflicting)}",
                file=sys.stderr,
            )
            return 2
        protocols = (args.protocol,) if args.protocol is not None else PROTOCOLS
        for protocol in protocols:
            if protocol not in PROTOCOLS:
                known = ", ".join(PROTOCOLS)
                print(f"unknown protocol {protocol!r}; choose one of: {known}", file=sys.stderr)
                return 2
        f = args.f if args.f is not None else 1
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
        conflicting = [
            f"--{flag}"
            for flag, value in (("protocol", args.protocol), ("fault", args.fault), ("f", args.f))
            if value is not None
        ]
        if conflicting:
            print(
                f"--matrix selects the whole grid; drop {', '.join(conflicting)}",
                file=sys.stderr,
            )
            return 2
        f_values = (1,) if args.matrix == "smoke" else (1, 2)
        specs = scenario_matrix(f_values=f_values, duration=duration, seeds=seeds)
        print(f"scenario matrix {args.matrix!r}: {len(specs)} runs")
    else:
        protocol = args.protocol if args.protocol is not None else "spotless"
        fault = args.fault if args.fault is not None else "A1"
        f = args.f if args.f is not None else 1
        if protocol not in PROTOCOLS:
            known = ", ".join(PROTOCOLS)
            print(f"unknown protocol {protocol!r}; choose one of: {known}", file=sys.stderr)
            return 2
        if fault not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            print(f"unknown fault {fault!r}; choose one of: {known}", file=sys.stderr)
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
        from repro.obs import Tracer, write_chrome_trace
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner(specs[0])
        tracer = Tracer(runner.cluster.simulator, capacity=None)
        runner.tracer = tracer
        runner.cluster.attach_tracer(tracer, telemetry_interval=specs[0].check_interval)
        results: List[object] = [runner.run()]
        counts = write_chrome_trace(tracer.dump(), args.trace)
        print(
            f"wrote {args.trace}: {sum(counts.values())} trace events "
            f"(open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    else:
        # Only the matrix is a campaign worth a durable ledger; replays and
        # single scenarios stay ledger-free unless --ledger asks for one.
        ledger = None
        if args.matrix is not None or getattr(args, "ledger", None):
            kind = f"scenario-{args.matrix}" if args.matrix is not None else "scenario"
            ledger = _campaign_ledger(
                args, kind, meta={"matrix": args.matrix, "seeds": list(seeds)}
            )
        # A replay must actually re-run the simulation — a cache hit would
        # "reproduce" the archived violation without executing anything.
        results = _run_specs(
            specs, args, use_cache=args.replay is None, flight=not args.no_flight,
            ledger=ledger,
        )
    from repro.dispatch.dispatcher import CellFailure

    crashed = [result for result in results if isinstance(result, CellFailure)]
    results = [result for result in results if not isinstance(result, CellFailure)]
    print(format_matrix(results))
    _print_counters(results, per_replica=args.counters)
    violations = [v for result in results for v in result.violations]
    if violations:
        print(f"\n{len(violations)} invariant violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        _archive_flight_dumps(results, Path(args.archive_dir))
        if crashed:
            _report_crashed_cells(crashed)
        return 1
    if crashed:
        _report_crashed_cells(crashed)
        return 1
    print(f"\ninvariant oracle: all {len(results)} scenarios clean")
    return 0


def _triage_failures(args: argparse.Namespace, failures: List[object]) -> None:
    """Minimize every failing fuzz cell and pin new findings in the corpus.

    Minimizations are dispatched as ``triage-minimize`` cells: with
    ``--workers`` several findings minimize side by side, and a whole
    unchanged minimization re-serves from the result cache.  Findings that
    no longer reproduce (the archive predates a fix) are reported, not
    ingested.
    """
    from repro.dispatch import Dispatcher, ResultCache
    from repro.triage import Corpus

    use_cache = not args.no_cache
    payloads = [
        {"spec": result.spec.to_json_dict(), "cache": use_cache} for result in failures
    ]
    dispatcher = Dispatcher(workers=args.workers, cache=ResultCache() if use_cache else None)
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


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.dispatch import MIN_FUZZ_DURATION, fuzz_matrix
    from repro.scenarios import format_matrix

    if args.count < 0:
        print("--count must be non-negative", file=sys.stderr)
        return 2
    error = _check_workers(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.duration < MIN_FUZZ_DURATION:
        print(f"--duration must be at least {MIN_FUZZ_DURATION}", file=sys.stderr)
        return 2
    specs = fuzz_matrix(args.count, seed=args.seed, duration=args.duration)
    print(f"fuzz campaign: {len(specs)} randomized multi-fault scenarios (seed {args.seed})")
    ledger = _campaign_ledger(
        args, f"fuzz-{args.seed}", meta={"seed": args.seed, "count": args.count}
    )
    results = _run_specs(specs, args, flight=not args.no_flight, ledger=ledger)
    from repro.dispatch.dispatcher import CellFailure

    crashed = [result for result in results if isinstance(result, CellFailure)]
    results = [result for result in results if not isinstance(result, CellFailure)]
    print(format_matrix(results))
    failures = [result for result in results if result.violations]
    if failures:
        archive_dir = Path(args.archive_dir)
        archive_dir.mkdir(parents=True, exist_ok=True)
        print(f"\n{len(failures)} of {len(results)} fuzz scenarios violated invariants:", file=sys.stderr)
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
        if crashed:
            _report_crashed_cells(crashed)
        return 1
    if crashed:
        _report_crashed_cells(crashed)
        return 1
    print(f"\nfuzz: all {len(results)} scenarios clean")
    return 0


def _cmd_triage_minimize(args: argparse.Namespace) -> int:
    from repro.dispatch import ResultCache
    from repro.triage import Corpus, minimize_spec

    error = _check_workers(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.max_attempts < 1:
        print("--max-attempts must be positive", file=sys.stderr)
        return 2
    try:
        spec = _load_replay_spec(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"cannot minimize {args.spec!r}: {error}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache()
    result = minimize_spec(
        spec, workers=args.workers, cache=cache, max_attempts=args.max_attempts
    )
    if not result.reproduced:
        print(
            f"{spec.name!r} ran clean — no failure signature to minimize "
            f"(fixed since the archive was written?)",
            file=sys.stderr,
        )
        return 1
    before, after = result.original, result.minimized
    print(
        f"minimized {spec.name!r}: {len(before.events)} -> {len(after.events)} event(s), "
        f"duration {before.duration:g}s -> {after.duration:g}s, f={before.f} -> {after.f} "
        f"({result.reductions} reductions in {result.attempts} runs)",
        file=sys.stderr,
    )
    print(f"signature: {result.signature.label()} ({result.signature.key()})", file=sys.stderr)
    blob = json.dumps(after.to_json_dict(), indent=2, sort_keys=True)
    if args.output:
        try:
            Path(args.output).write_text(blob + "\n", encoding="utf-8")
        except OSError as error:
            # Minutes of minimization may be behind us; dump the spec to
            # stdout rather than lose it to a bad output path.
            print(f"cannot write {args.output!r}: {error}", file=sys.stderr)
            print(blob)
            return 1
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(blob)
    if args.ingest:
        corpus = Corpus(Path(args.corpus_dir))
        try:
            entry, created = corpus.ingest(after, result.signature, source=args.spec)
        except ValueError as error:
            # A corrupt entry file anywhere in the corpus blocks dedup; the
            # minimized spec was already emitted above, so only the pinning
            # failed.
            print(f"cannot ingest into {corpus.root}: {error}", file=sys.stderr)
            return 1
        if created:
            print(f"pinned as corpus entry {corpus.path_for(entry.name)}", file=sys.stderr)
        else:
            print(
                f"signature already pinned by corpus entry {entry.name!r}; nothing ingested",
                file=sys.stderr,
            )
    return 0


def _cmd_triage_corpus(args: argparse.Namespace) -> int:
    from repro.dispatch import ResultCache
    from repro.triage import Corpus, format_corpus, replay_corpus

    error = _check_workers(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    corpus = Corpus(Path(args.corpus_dir))
    if args.promote:
        try:
            entry = corpus.promote(args.promote)
        except (KeyError, ValueError) as error:
            # ValueError: a corrupt entry file anywhere in the corpus.
            print(str(error), file=sys.stderr)
            return 2
        print(f"promoted {entry.name!r} to a passing regression")
        return 0
    try:
        entries = corpus.entries()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not entries:
        print(f"corpus at {corpus.root} is empty; `repro fuzz` findings land here")
        return 0
    cache = None if args.no_cache else ResultCache()
    outcomes = replay_corpus(corpus, workers=args.workers, cache=cache, entries=entries)
    print(f"corpus replay: {len(outcomes)} entries from {corpus.root}")
    print(format_corpus(outcomes))
    broken = [outcome for outcome in outcomes if not outcome.ok]
    fixed = [outcome for outcome in outcomes if outcome.status == "fixed"]
    for outcome in fixed:
        print(
            f"\n{outcome.entry.name!r} no longer fails — its bug looks fixed; promote it "
            f"with `repro triage corpus --promote {outcome.entry.name}`",
            file=sys.stderr,
        )
    if broken:
        print(f"\n{len(broken)} corpus entries changed behaviour:", file=sys.stderr)
        for outcome in broken:
            observed = outcome.row()["observed"]
            print(
                f"  {outcome.entry.name}: {outcome.status} "
                f"(expected {outcome.entry.signature.key()}, observed {observed})",
                file=sys.stderr,
            )
        return 1
    if args.require_clean:
        # Open bugs stopped being "expected" once the seed corpus closed:
        # a still-failing entry is a liveness bug someone has to fix, and a
        # fixed-but-unpromoted entry is a regression guard not yet armed.
        unclean = [outcome for outcome in outcomes if outcome.status != "passing"]
        if unclean:
            print(f"\n--require-clean: {len(unclean)} entries are not passing regressions:", file=sys.stderr)
            for outcome in unclean:
                hint = (
                    f"promote it with `repro triage corpus --promote {outcome.entry.name}`"
                    if outcome.status == "fixed"
                    else "fix the underlying bug"
                )
                print(f"  {outcome.entry.name}: {outcome.status} — {hint}", file=sys.stderr)
            return 1
    if fixed:
        print(
            f"\ncorpus: {len(outcomes) - len(fixed)} of {len(outcomes)} entries behave "
            f"as pinned; {len(fixed)} now run clean and await promotion"
        )
    else:
        print(f"\ncorpus: all {len(outcomes)} entries behave as pinned")
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    handler = getattr(args, "triage_handler", None)
    if handler is None:
        print("usage: repro triage {minimize,corpus} ...", file=sys.stderr)
        return 2
    return handler(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record one scenario with a full tracer and export a Perfetto trace."""
    from repro.obs import (
        Tracer,
        timeseries_json,
        write_chrome_trace,
        write_timeseries_csv,
    )

    if args.from_dump is not None:
        # Render an archived flight-recorder dump (a fuzz archive's "trace"
        # key or a standalone *-flight.json) without re-running anything.
        if args.target is not None:
            print("--from-dump renders an archived dump; drop the spec target", file=sys.stderr)
            return 2
        try:
            with open(args.from_dump, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read {args.from_dump!r}: {error}", file=sys.stderr)
            return 2
        dump = data.get("trace") if isinstance(data, dict) and "records" not in data else data
        if not isinstance(dump, dict) or "records" not in dump:
            print(f"{args.from_dump!r} holds no flight-recorder dump", file=sys.stderr)
            return 2
        counts = write_chrome_trace(dump, args.output)
        print(
            f"wrote {args.output}: {sum(counts.values())} trace events from the archived "
            f"dump ({dump.get('dropped_records', 0)} older records were evicted from the ring)"
        )
        print("open it in https://ui.perfetto.dev or chrome://tracing")
        return 0

    if args.target is None:
        print("usage: repro trace SPEC_OR_CORPUS_ENTRY [--output trace.json]", file=sys.stderr)
        return 2
    path = Path(args.target)
    if not path.exists():
        candidate = Path(args.corpus_dir) / f"{args.target}.json"
        if not candidate.exists():
            print(
                f"no spec file {args.target!r} (also tried corpus entry {candidate})",
                file=sys.stderr,
            )
            return 2
        path = candidate
    try:
        spec = _load_replay_spec(str(path))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"cannot load {path}: {error}", file=sys.stderr)
        return 2

    from repro.scenarios.runner import ScenarioRunner

    runner = ScenarioRunner(spec)
    # Unbounded capture: `repro trace` exists to look at the whole run, not
    # just the flight recorder's trailing window.
    tracer = Tracer(runner.cluster.simulator, capacity=None)
    runner.tracer = tracer
    interval = args.telemetry_interval if args.telemetry_interval is not None else spec.check_interval
    runner.cluster.attach_tracer(tracer, telemetry_interval=interval)
    print(
        f"tracing scenario {spec.name!r}: protocol {spec.protocol}, "
        f"fault {spec.fault_label()}, seed {spec.seed}, {spec.duration:g}s"
    )
    result = runner.run()
    counts = write_chrome_trace(tracer.dump(), args.output)
    summary = tracer.summary()
    print(
        f"wrote {args.output}: {sum(counts.values())} trace events, "
        f"{summary['open_spans']} span(s) still open at the end"
    )
    if summary["span_categories"]:
        rendered = ", ".join(
            f"{name} x{count}" for name, count in summary["span_categories"].items()
        )
        print(f"  span categories: {rendered}")
    print(f"  tracks: {', '.join(summary['tracks'])}")
    print("  open it in https://ui.perfetto.dev or chrome://tracing")
    if args.timeseries is not None:
        series = list(runner.cluster.metrics.series())
        if args.timeseries.endswith(".json"):
            with open(args.timeseries, "w", encoding="utf-8") as handle:
                json.dump(timeseries_json(series), handle, indent=2, sort_keys=True)
            rows = sum(len(item.buckets()) for item in series)
        else:
            rows = write_timeseries_csv(series, args.timeseries)
        print(f"wrote {args.timeseries}: {rows} telemetry samples")
    if result.violations:
        print(f"\n{len(result.violations)} invariant violation(s) in the traced run:", file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


def _read_campaign(path: str):
    """Read and reduce one ledger; returns (records, manifest) or an error string."""
    from repro.dispatch import read_ledger, reduce_ledger

    try:
        records = read_ledger(path)
    except OSError as error:
        return None, None, f"cannot read ledger {path!r}: {error}"
    if not records:
        return None, None, f"{path!r} holds no campaign records"
    return records, reduce_ledger(records), None


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.dispatch import format_status

    records, manifest, error = _read_campaign(args.ledger)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    print(format_status(manifest))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.dispatch import format_report

    records, manifest, error = _read_campaign(args.ledger)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    print(format_report(manifest, top=args.top))
    if args.trace is not None:
        from repro.obs import write_campaign_trace

        counts = write_campaign_trace(records, args.trace)
        print(
            f"wrote {args.trace}: {sum(counts.values())} trace events "
            f"(open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def _cmd_campaign_tail(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.dispatch import format_event, read_ledger

    records, _manifest, error = _read_campaign(args.ledger)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    shown = records if args.lines <= 0 else records[-args.lines:]
    for record in shown:
        print(format_event(record))
    if not args.follow:
        return 0
    # Follow mode: poll for appended records until campaign-end (the reader
    # tolerates racing an in-flight append, so re-reading is safe).
    seen = len(records)
    try:
        while not any(record.get("event") == "campaign-end" for record in records):
            time_module.sleep(0.5)
            records = read_ledger(args.ledger)
            for record in records[seen:]:
                print(format_event(record), flush=True)
            seen = len(records)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    handler = getattr(args, "campaign_handler", None)
    if handler is None:
        print("usage: repro campaign {status,report,tail} LEDGER", file=sys.stderr)
        return 2
    return handler(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    points = cross_validate_protocols(num_replicas=args.replicas, duration=args.duration)
    report = validation_report(points)
    print(format_table(report["rows"], ["protocol", "replicas", "simulated_txn_s", "model_txn_s"]))
    print(f"simulator ranking: {' > '.join(report['simulated_ranking'])}")
    print(f"model ranking:     {' > '.join(report['model_ranking'])}")
    print(f"pairwise rank agreement: {report['rank_agreement']:.2f}")
    return 0


def _add_ledger_flags(parser: argparse.ArgumentParser, scope: str) -> None:
    """The campaign-ledger flag pair shared by every campaign-capable verb."""
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help=f"campaign ledger JSONL path ({scope}: default campaign-ledgers/<auto>.jsonl)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record a campaign ledger",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpotLess (ICDE 2024) reproduction: experiments, ablations and simulated clusters.",
    )
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list available figures and ablations")
    list_parser.set_defaults(handler=_cmd_list)

    complexity_parser = subparsers.add_parser("complexity", help="print the Figure 1 complexity table")
    complexity_parser.set_defaults(handler=_cmd_complexity)

    figure_parser = subparsers.add_parser("figure", help="regenerate one figure of the evaluation")
    figure_parser.add_argument("name", help="figure name (see `repro list`), or `all` for every figure")
    figure_parser.add_argument("--replicas", type=int, nargs="*", help="replica counts (fig7a only)")
    figure_parser.add_argument("--faulty", type=int, default=None, help="failure count (fig12 only)")
    figure_parser.add_argument(
        "--protocols", nargs="*", default=None, help="protocol subset (offered-load only)"
    )
    figure_parser.add_argument(
        "--workers", type=int, default=None,
        help="dispatch figures across N worker processes with the result cache",
    )
    figure_parser.add_argument(
        "--no-cache", action="store_true", help="skip the dispatch result cache"
    )
    _add_ledger_flags(figure_parser, "with `all`")
    figure_parser.set_defaults(handler=_cmd_figure)

    ablation_parser = subparsers.add_parser("ablation", help="run one design-choice ablation")
    ablation_parser.add_argument("name", help="ablation name (see `repro list`), or `all` for every ablation")
    ablation_parser.add_argument(
        "--workers", type=int, default=None,
        help="dispatch ablations across N worker processes with the result cache",
    )
    ablation_parser.add_argument(
        "--no-cache", action="store_true", help="skip the dispatch result cache"
    )
    _add_ledger_flags(ablation_parser, "with `all`")
    ablation_parser.set_defaults(handler=_cmd_ablation)

    cluster_parser = subparsers.add_parser("cluster", help="run a small message-level simulated cluster")
    cluster_parser.add_argument("--protocol", default="spotless", help="spotless, pbft, rcc, hotstuff, narwhal-hs")
    cluster_parser.add_argument("--replicas", type=int, default=4)
    cluster_parser.add_argument("--batch-size", type=int, default=10)
    cluster_parser.add_argument("--clients", type=int, default=4)
    cluster_parser.add_argument("--outstanding", type=int, default=8)
    cluster_parser.add_argument("--duration", type=float, default=1.0)
    cluster_parser.add_argument("--warmup", type=float, default=0.0)
    cluster_parser.add_argument("--seed", type=int, default=1)
    cluster_parser.set_defaults(handler=_cmd_cluster)

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="run adversarial chaos scenarios with the invariant oracle attached",
    )
    scenario_parser.add_argument(
        "--matrix",
        choices=("smoke", "full"),
        default=None,
        help="run a predefined scenario matrix instead of a single scenario",
    )
    scenario_parser.add_argument(
        "--overload",
        action="store_true",
        help="run the overload-and-recover family (open-loop load + SLO oracle) "
        "instead of a fault scenario; --protocol narrows it to one protocol",
    )
    scenario_parser.add_argument(
        "--protocol", default=None, help="spotless, pbft, rcc, hotstuff, narwhal-hs (default: spotless)"
    )
    scenario_parser.add_argument(
        "--fault", default=None, help="A1, A2, A3, A4, crash, partition, latency (default: A1)"
    )
    scenario_parser.add_argument(
        "--f", type=int, default=None, help="faulty replicas, cluster size is 3f + 1 (default: 1)"
    )
    scenario_parser.add_argument(
        "--duration", type=float, default=None, help="simulated seconds per scenario (default: 0.4)"
    )
    scenario_parser.add_argument("--seed", type=int, default=None, help="single seed (default: 1)")
    scenario_parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="run every scenario of the grid at each of these seeds (excludes --seed)",
    )
    scenario_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard scenarios across N worker processes (results stay in grid order)",
    )
    scenario_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --workers: always re-run cells instead of using the result cache",
    )
    scenario_parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run one archived scenario spec (e.g. a failing fuzz cell) from JSON",
    )
    scenario_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="recovery checkpoint interval K (0 disables checkpointing/state transfer)",
    )
    scenario_parser.add_argument(
        "--lenient-liveness",
        action="store_true",
        help="report post-heal stragglers as a column instead of failing the run",
    )
    scenario_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record the (single) scenario with a full tracer and write Perfetto "
        "trace JSON here (see also `repro trace`)",
    )
    scenario_parser.add_argument(
        "--counters",
        action="store_true",
        help="expand the liveness-counter summary into a per-replica breakdown",
    )
    scenario_parser.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the flight recorder (on by default; violations then archive "
        "no trailing trace window)",
    )
    scenario_parser.add_argument(
        "--archive-dir",
        default="fuzz-failures",
        help="directory that receives *-flight.json dumps of violating runs",
    )
    _add_ledger_flags(scenario_parser, "with --matrix")
    scenario_parser.set_defaults(handler=_cmd_scenario)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="run randomized multi-fault scenarios; archive failing specs for replay",
    )
    fuzz_parser.add_argument("--count", type=int, default=20, help="number of fuzz scenarios")
    fuzz_parser.add_argument("--seed", type=int, default=1, help="master seed of the campaign")
    fuzz_parser.add_argument("--duration", type=float, default=0.4, help="simulated seconds per scenario")
    fuzz_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard scenarios across N worker processes (results stay in campaign order)",
    )
    fuzz_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --workers: always re-run cells instead of using the result cache",
    )
    fuzz_parser.add_argument(
        "--archive-dir",
        default="fuzz-failures",
        help="directory that receives the replayable JSON spec of every failing cell",
    )
    fuzz_parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="archive failing cells raw instead of auto-minimizing them into the corpus",
    )
    fuzz_parser.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help="regression corpus directory that minimized findings are pinned into",
    )
    fuzz_parser.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the flight recorder (failing cells then archive no trace window)",
    )
    _add_ledger_flags(fuzz_parser, "always on")
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="inspect a campaign ledger: manifest, failure breakdown, event tail",
    )
    campaign_parser.set_defaults(handler=_cmd_campaign)
    campaign_subparsers = campaign_parser.add_subparsers(dest="campaign_command")

    status_parser = campaign_subparsers.add_parser(
        "status",
        help="cell accounting (done/failed/cached/in-flight/pending), rate, ETA, workers",
    )
    status_parser.add_argument("ledger", help="campaign ledger JSONL file")
    status_parser.set_defaults(campaign_handler=_cmd_campaign_status)

    report_parser = campaign_subparsers.add_parser(
        "report",
        help="full campaign report: failure signatures, slowest cells, worker utilization",
    )
    report_parser.add_argument("ledger", help="campaign ledger JSONL file")
    report_parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="rows per breakdown section (default: 5)",
    )
    report_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also export the campaign timeline as Chrome trace-event JSON "
        "(one track per worker, open in https://ui.perfetto.dev)",
    )
    report_parser.set_defaults(campaign_handler=_cmd_campaign_report)

    tail_parser = campaign_subparsers.add_parser(
        "tail",
        help="print the last ledger events, one line each",
    )
    tail_parser.add_argument("ledger", help="campaign ledger JSONL file")
    tail_parser.add_argument(
        "-n",
        "--lines",
        type=int,
        default=20,
        help="events to show (default: 20; 0 means all)",
    )
    tail_parser.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events until campaign-end (Ctrl-C to stop)",
    )
    tail_parser.set_defaults(campaign_handler=_cmd_campaign_tail)

    trace_parser = subparsers.add_parser(
        "trace",
        help="record one scenario with the tracer and export a Perfetto timeline",
    )
    trace_parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="spec JSON path (bare spec or fuzz archive) or bare corpus entry name",
    )
    trace_parser.add_argument(
        "--output",
        default="trace.json",
        metavar="FILE",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    trace_parser.add_argument(
        "--timeseries",
        default=None,
        metavar="FILE",
        help="also export the sampled telemetry (CSV, or JSON when FILE ends in .json)",
    )
    trace_parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        help="telemetry sampling interval in simulated seconds "
        "(default: the spec's check interval)",
    )
    trace_parser.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help="corpus directory searched when the target is a bare entry name",
    )
    trace_parser.add_argument(
        "--from-dump",
        default=None,
        metavar="FILE",
        help="render an archived flight-recorder dump (fuzz archive or *-flight.json) "
        "instead of running a scenario",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    triage_parser = subparsers.add_parser(
        "triage",
        help="minimize failing scenarios and maintain the regression corpus",
    )
    triage_parser.set_defaults(handler=_cmd_triage)
    triage_subparsers = triage_parser.add_subparsers(dest="triage_command")

    minimize_parser = triage_subparsers.add_parser(
        "minimize",
        help="delta-debug one archived failing spec down to a minimal reproduction",
    )
    minimize_parser.add_argument(
        "spec", help="JSON file holding the failing spec (bare spec or fuzz archive)"
    )
    minimize_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="evaluate candidate reductions across N worker processes",
    )
    minimize_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-run candidates instead of using the result cache",
    )
    minimize_parser.add_argument(
        "--max-attempts",
        type=int,
        default=256,
        help="ceiling on candidate evaluations (default: 256)",
    )
    minimize_parser.add_argument(
        "--output", default=None, metavar="FILE", help="write the minimized spec JSON here"
    )
    minimize_parser.add_argument(
        "--ingest",
        action="store_true",
        help="pin the minimized spec in the regression corpus (dedup by signature)",
    )
    minimize_parser.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help="regression corpus directory used by --ingest",
    )
    minimize_parser.set_defaults(triage_handler=_cmd_triage_minimize)

    corpus_parser = triage_subparsers.add_parser(
        "corpus",
        help="replay every corpus entry and classify still-failing / fixed / signature-changed",
    )
    corpus_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="replay entries across N worker processes",
    )
    corpus_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-run entries instead of using the result cache",
    )
    corpus_parser.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help="regression corpus directory to replay",
    )
    corpus_parser.add_argument(
        "--promote",
        default=None,
        metavar="NAME",
        help="flip one fixed entry to a passing regression instead of replaying",
    )
    corpus_parser.add_argument(
        "--require-clean",
        action="store_true",
        help="fail if any entry is not a passing regression (open bugs are no longer 'expected')",
    )
    corpus_parser.set_defaults(triage_handler=_cmd_triage_corpus)

    validate_parser = subparsers.add_parser(
        "validate", help="cross-validate the analytical model against the simulator"
    )
    validate_parser.add_argument("--replicas", type=int, default=4)
    validate_parser.add_argument("--duration", type=float, default=1.0)
    validate_parser.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 1
    return handler(args)


__all__ = ["ABLATIONS", "FIGURES", "build_parser", "main"]
