"""The ``trace`` verb, and the spec loader and traced-run helper it shares
with ``scenario --replay`` / ``scenario --trace`` and ``triage minimize``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

#: What loading a replay/archive file can raise on a bad path or bad content.
SPEC_FILE_ERRORS = (OSError, ValueError, KeyError, TypeError)


def load_replay_spec(path: str):
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


def traced_run(spec, output: str, telemetry_interval: Optional[float] = None):
    """Run ``spec`` under an unbounded tracer and write the Perfetto JSON.

    Unbounded because a requested trace is for looking at the whole run, not
    just the flight recorder's trailing window.  Returns ``(result, events
    written, tracer, cluster)``.
    """
    from repro.obs import Tracer, write_chrome_trace
    from repro.scenarios.runner import ScenarioRunner

    runner = ScenarioRunner(spec)
    tracer = Tracer(runner.cluster.simulator, capacity=None)
    runner.tracer = tracer
    if telemetry_interval is None:
        telemetry_interval = spec.check_interval
    runner.cluster.attach_tracer(tracer, telemetry_interval=telemetry_interval)
    result = runner.run()
    counts = write_chrome_trace(tracer.dump(), output)
    return result, sum(counts.values()), tracer, runner.cluster


def _render_dump(args: argparse.Namespace) -> int:
    """Render an archived flight-recorder dump (a fuzz archive's "trace" key
    or a standalone *-flight.json) without re-running anything."""
    from repro.obs import write_chrome_trace

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


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one scenario with a full tracer and export a Perfetto trace."""
    if args.from_dump is not None:
        return _render_dump(args)
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
        spec = load_replay_spec(str(path))
    except SPEC_FILE_ERRORS as error:
        print(f"cannot load {path}: {error}", file=sys.stderr)
        return 2
    print(
        f"tracing scenario {spec.name!r}: protocol {spec.protocol}, "
        f"fault {spec.fault_label()}, seed {spec.seed}, {spec.duration:g}s"
    )
    result, events, tracer, cluster = traced_run(spec, args.output, args.telemetry_interval)
    summary = tracer.summary()
    print(
        f"wrote {args.output}: {events} trace events, "
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
        from repro.obs import timeseries_json, write_timeseries_csv

        series = list(cluster.metrics.series())
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
