"""perfbench: the repo's end-to-end and layer-attributed benchmark.

    python perfbench/run.py                          # all four workloads, both passes
    python perfbench/run.py --out perfbench/results/baseline.json
    python perfbench/run.py --workload spotless_steady --seed 3 --seconds 24 --trace 0
    python perfbench/run.py --workload spotless_steady --seed 3 --seconds 24 --trace 1
    python perfbench/run.py --selfcheck              # < 30 s: miniature horizons

How a number is taken: every repeat of a workload is one fresh child process
(``PYTHONHASHSEED=0``, never two at once; several workloads take turns so
machine drift spreads evenly).  The child imports the simulator and builds
every cell (set-up), then runs the timed body step by step against the
calibration loop (``calib.py``), then checks the outcome.  A workload's
value is the median over its repeats.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds one repeat under cProfile plus the single-layer
probes and prints the per-layer metrics; without ``--trace`` both are taken.
``BENCHMARK.json`` names every metric, its unit and its bound.

The last line of standard output is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import layers
from workloads import (
    REPO_ROOT, WORKLOAD_NAMES, ScenarioCell, ScenarioRun, count_ops, sim_metrics, Meter,
    bootstrap_repro, run_cell, run_workload, workload_named,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SCHEMA = "perfbench/v1"
#: Fewest repeats a workload's median may rest on.
MIN_REPEATS = 5
#: Horizon multipliers of --selfcheck: as small as still confirms something in
#: every cell (chaos cells need room for a fault, a heal and a post-heal window).
SELFCHECK_SCALE = {"spotless_steady": 0.12, "baselines_steady": 0.04, "chaos_recovery": 0.25,
                   "openloop_rates": 0.05}
#: A child that runs longer than this is stuck (the contract allows 180 s a run).
CHILD_TIMEOUT = 150.0


def load_spec() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one repeat: in this process (child, selfcheck) or in a fresh one
# ----------------------------------------------------------------------


def repeat_here(name: str, seed: int, scale: float, profile: bool, started_at: Optional[float]) -> Dict[str, Any]:
    """Run one repeat in this process; with ``profile`` add the layers table."""
    profiler = cProfile.Profile() if profile else None
    record = run_workload(workload_named(name, scale), seed, started_at, profiler)
    if profiler is not None:
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        record["layers"] = layers.rollup(stats)
        record["py_calls"] = layers.total_calls(stats)
    return record


def repeat_in_child(name: str, seed: int, profile: bool = False) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and parse the record it prints."""
    command = [sys.executable, str(HERE / "run.py"), "--child", name, "--seed", str(seed),
               "--spawned-at", repr(time.time())]
    if profile:
        command.append("--profile")
    done = subprocess.run(
        command, env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT, check=False, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"repeat of {name} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarise(
    spec: Dict[str, Any],
    records: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
    probes: Optional[Dict[str, float]],
) -> Dict[str, Any]:
    """Fold a workload's repeats into named metrics, samples and checks."""
    first = records[0]
    sim_names = [m["name"] for m in spec["end_to_end"] if m["name"].startswith("sim_")]
    problems = [f"{c['name']}: {c['failed']}" for c in first["cells"] if c["failed"]]
    for record in records[1:] + ([traced] if traced else []):
        same = record["outcome_digest"] == first["outcome_digest"] and all(
            record[name] == first[name] for name in sim_names
        )
        if not same:
            problems.append("repeats of one seed disagree on the simulated outcome")
            break
    if first["ops_attempted"] < 1:
        problems.append("nothing was attempted")

    def median(group: Optional[str], name: str) -> float:
        return statistics.median((r[group] if group else r)[name] for r in records)

    values: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for metric in spec["end_to_end"]:
        samples[metric["name"]] = [r[metric["name"]] for r in records]
        values[metric["name"]] = median(None, metric["name"])
    samples["setup_wall_s"] = [r["setup_wall_s"] for r in records]  # raw seconds, for the record
    for group in ("counts", "pyrt", "harness"):
        for name in first[group]:
            values[name] = median(group, name)
    values["harness.repeats"] = len(records)
    if traced is not None:
        for layer, row in traced["layers"].items():
            for column, value in row.items():
                values[f"{layer}.{column}"] = value
        values["trace.overhead_x"] = traced["host_calib_ratio"] / values["host_calib_ratio"]
        values["trace.py_calls_per_txn"] = traced["py_calls"] / max(1, traced["confirmed"])
    values.update(probes or {})

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unnamed = sorted(set(values) - set(units))
    if unnamed:
        raise RuntimeError(f"metrics not named in BENCHMARK.json: {unnamed}")
    return {
        "correct": not problems,
        "problems": problems,
        "ops_attempted": sum(r["ops_attempted"] for r in records),
        "ops_failed": sum(r["ops_failed"] for r in records),
        "outcome_digest": first["outcome_digest"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "quartiles": {name: _quartiles(vals) for name, vals in samples.items()},
        "samples": samples,
        "cells": first["cells"],
        "layers": traced["layers"] if traced else None,
    }


def contract_line(spec: Dict[str, Any], summary: Dict[str, Any], trace: Optional[int]) -> str:
    """The result object the benchmark contract asks for, as one line."""
    wanted: List[str] = []
    if trace in (0, None):
        wanted += [m["name"] for m in spec["end_to_end"]]
    if trace in (1, None):
        wanted += [m["name"] for m in spec["per_layer"]]
    missing = [name for name in wanted if name not in summary["metrics"]]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {name: summary["metrics"][name] for name in wanted},
    })


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def print_summary(name: str, seed: int, spec: Dict[str, Any], summary: Dict[str, Any],
                  trace: Optional[int]) -> None:
    metrics = summary["metrics"]
    print(f"\n== {name} (seed {seed}, {int(metrics['harness.repeats']['value'])} repeats) ==")
    print(f"  operations: {summary['ops_attempted']} attempted, {summary['ops_failed']} failed; "
          f"outcome_digest {summary['outcome_digest']}; correct: {summary['correct']}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")
    print("  end-to-end (median [q1 .. q3] over repeats):")
    for metric in spec["end_to_end"]:
        q1, _, q3 = summary["quartiles"][metric["name"]]
        value = metrics[metric["name"]]["value"]
        print(f"    {metric['name']:<22}{value:>14.4f} {metric['unit']:<10} [{q1:.4f} .. {q3:.4f}]")
    print("  cells (simulated clock; tail = p99 given >= 1000 samples, else as stated):")
    for cell in summary["cells"]:
        if cell["failed"]:
            print(f"    {cell['name']:<24} FAILED: {cell['failed']}")
            continue
        print(f"    {cell['name']:<24}{cell['txn_per_s']:>9.0f} txn/s  p50 {cell['p50_ms']:>7.2f} ms  "
              f"p{cell['tail_percentile'] * 100:.1f} {cell['tail_ms']:>7.2f} ms  max {cell['max_ms']:>7.2f} ms  "
              f"n={cell['samples']}" + (f"  offered={cell['offered']} unconfirmed={cell['unconfirmed']}"
                                        if "offered" in cell else ""))
    if trace == 0:
        return
    per_layer = [m for m in spec["per_layer"] if m["name"] in metrics]
    if summary["layers"]:
        print("  layers (one repeat under cProfile; self time, callees outside the layers charged to callers):")
        for line in layers.format_table(summary["layers"]).splitlines():
            print(f"    {line}")
        in_table = {f"{layer}.{column}" for layer, row in summary["layers"].items() for column in row}
        per_layer = [m for m in per_layer if m["name"] not in in_table]
    if per_layer:
        print("  per-layer:")
        for metric in per_layer:
            print(f"    {metric['name']:<40}{metrics[metric['name']]['value']:>16.4f} {metric['unit']}")


def write_chrome_trace(path: Path, workload: str, repeats: Sequence[Dict[str, Any]]) -> None:
    """Benchmark-side spans as Chrome-trace JSON (one process row per repeat)."""
    events = []
    for repeat_id, record in enumerate(repeats):
        for name, start, end, parent in record["spans"]:
            events.append({
                "name": name, "ph": "X", "pid": repeat_id, "tid": 0,
                "ts": round(start * 1e6, 1), "dur": round((end - start) * 1e6, 1),
                "args": {"parent": parent, "workload": workload, "repeat": repeat_id},
            })
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}), encoding="utf-8")


def machine() -> Dict[str, Any]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version()}


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------


def measure(
    spec: Dict[str, Any],
    names: Sequence[str],
    seed: int,
    seconds: float,
    repeats: Optional[int],
    trace: Optional[int],
) -> Dict[str, Dict[str, Any]]:
    """Measure the named workloads; returns ``{workload: summary}``."""
    records: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}

    def wants_another(name: str) -> bool:
        done = len(records[name])
        if repeats is not None:
            return done < repeats
        if trace == 1:
            return done < 1  # the traced pass needs one untraced repeat to compare with
        # Start another repeat while at least half of it fits the budget, but
        # never rest a median on fewer than MIN_REPEATS.
        return done < MIN_REPEATS or spent[name] + 0.5 * spent[name] / done <= seconds

    while any(wants_another(name) for name in names):
        for name in names:  # round-robin, so drift hits every workload alike
            if wants_another(name):
                start = time.perf_counter()
                records[name].append(repeat_in_child(name, seed))
                spent[name] += time.perf_counter() - start
    traced: Dict[str, Optional[Dict[str, Any]]] = {name: None for name in names}
    probes = None
    if trace in (1, None):
        for name in names:
            traced[name] = repeat_in_child(name, seed, profile=True)
            write_chrome_trace(OUT_DIR / f"trace-{name}-seed{seed}.json", name,
                               records[name] + [traced[name]])
        from probes import run_probes

        probes = run_probes()
    return {name: summarise(spec, records[name], traced[name], probes) for name in names}


def _require(condition: bool, message: str) -> None:
    """A self-test check that survives ``python -O``."""
    if not condition:
        raise RuntimeError(f"selfcheck failed: {message}")


def selfcheck(spec: Dict[str, Any]) -> int:
    """Miniature horizons, in this process: are the metrics all there, does a
    seed repeat exactly, does a second seed run clean, are failures counted,
    does the layer roll-up conserve time?"""
    import test_layers
    from probes import run_probes
    from repro.scenarios.spec import FaultEvent, single_fault_spec

    started = time.time()
    checks = [check for name, check in vars(test_layers).items() if name.startswith("test_")]
    for check in checks:
        check()
    print(f"selfcheck layer roll-up: {len(checks)} checks of test_layers.py pass")
    probes = run_probes()
    for name in WORKLOAD_NAMES:
        scale = SELFCHECK_SCALE[name]
        plain = repeat_here(name, 1, scale, False, None)
        traced = repeat_here(name, 1, scale, True, None)
        summary = summarise(spec, [plain], traced, probes)
        contract_line(spec, summary, None)  # raises unless every named metric is there
        _require(summary["correct"], f"{name}: {summary['problems']}")
        other = summarise(spec, [repeat_here(name, 2, scale, False, None)], None, None)
        _require(other["correct"], f"{name} seed 2: {other['problems']}")
        _require(other["outcome_digest"] != summary["outcome_digest"], f"{name}: seed does not reach the inputs")
        shares = sum(row["self_share"] for row in traced["layers"].values())
        _require(abs(shares - 1.0) < 1e-6, f"{name}: layer shares sum to {shares}")
        print(f"selfcheck {name}: {len(summary['metrics'])} metrics, digest {summary['outcome_digest']} "
              f"repeats under tracing, seed 2 clean")

    # A cell that crashes f+1 replicas for the whole run confirms nothing: it
    # must come back as a failed operation and leave the latency figures alone.
    cell = ScenarioCell("sabotaged", "pbft", "crash", 1, 0.2)
    crash = FaultEvent(kind="crash", at=0.0, until=None, replicas=(2, 3))
    spec_ok = single_fault_spec("pbft", "crash", f=1, duration=0.2, seed=1)
    with Meter(time.time()) as meter:
        good = run_cell(ScenarioRun(replace(cell, name="good"), 1, spec=spec_ok), meter)
        bad = run_cell(ScenarioRun(cell, 1, spec=replace(spec_ok, events=(crash,))), meter)
    workload = workload_named("chaos_recovery")
    _require(good["failed"] is None and bad["failed"], f"sabotaged cell not flagged: {bad['failed']!r}")
    _require(count_ops(workload, [good, bad]) == (2, 1), "the sabotaged cell was not counted as one failed operation")
    _require(sim_metrics(workload, [good, bad]) == sim_metrics(workload, [good]),
             "the sabotaged cell leaked into the latency figures")
    print(f"selfcheck failure counting: sabotaged cell failed with {bad['failed']!r}, no latency sample taken")
    print(f"selfcheck ok in {time.time() - started:.1f} s")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="perfbench: end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="feeds cluster seeds and arrival RNGs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many repeats per workload instead of a time budget")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics; omitted: both")
    parser.add_argument("--out", help="write the full result (samples, quartiles, cells) to this file")
    parser.add_argument("--selfcheck", action="store_true", help="miniature self-test, < 30 s")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap_repro()
    if args.child:
        print(json.dumps(repeat_here(args.child, args.seed, 1.0, args.profile, args.spawned_at)))
        return 0
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])

    from repro.sim.network import NetworkConfig

    net = NetworkConfig()
    network = {"one_way_delay_ms": net.base_delay * 1e3, "jitter_ms": net.jitter * 1e3,
               "nic_gbit_per_s": net.bandwidth_bytes_per_sec * 8 / 1e9}
    print(f"perfbench: seed {args.seed}; injected one-way delay {network['one_way_delay_ms']:g} ms "
          f"+/- {network['jitter_ms']:g} ms, {network['nic_gbit_per_s']:g} Gbit/s NICs; "
          f"closed loops are 3 clients x 4 outstanding, batch 8 (chaos cells 2 x 2, batch 4)")
    summaries = measure(spec, names, args.seed, seconds, args.repeats, args.trace)
    for name in names:
        print_summary(name, args.seed, spec, summaries[name], args.trace)
    if args.out:
        result = {"schema": SCHEMA, "claim": None, "seed": args.seed, "machine": machine(),
                  "network": network, "workloads": summaries}
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")
    print()
    for name in names:
        print(contract_line(spec, summaries[name], args.trace))
    return 0 if all(summary["correct"] for summary in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
