"""Alternating parent/change pairs of one perfbench workload: steps 3-4 of
``perfbench/README.md`` "Claiming a gain", as one command.

    git worktree add /tmp/parent HEAD~1
    python tools/perf_pairs.py --parent /tmp/parent --workload spotless_steady --seed 1
    python tools/perf_pairs.py --parent /tmp/parent --pairs 2 --repeats 1     # smoke size

Each side is a checkout holding ``perfbench/run.py`` and ``src/repro``; the
change defaults to the checkout this file sits in.  A pair is one
``perfbench/run.py --workload W --seed S --trace 0`` on each side, never two at
once, and the side that goes first alternates.  Printed: the metric per pair
with its winner, wins out of the pairs run (ties count for neither), both
medians with quartiles, the ratio with its base, whether the medians differ by
more than the parent's interquartile range, and whether every ``sim_*`` value
was bit-identical across all runs.  The gain rule (at least ten pairs, the
change wins at least nine tenths of them and the medians differ by more than
that range) decides the last line; the exit code is non-zero only when a run
was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, passthrough: Sequence[str]) -> Dict[str, Any]:
    """One benchmark run in ``checkout``; the contract line of its workload."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--trace", "0", *passthrough]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"{' '.join(command)} printed no result line:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=HERE, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", default="spotless_steady")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="host_calib_ratio", help="an end-to-end metric of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, help="passed to perfbench/run.py")
    parser.add_argument("--repeats", type=int, help="passed to perfbench/run.py")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {row["name"]: row for row in spec["end_to_end"]}
    if args.metric not in declared:
        parser.error(f"--metric must be one of {sorted(declared)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    lower_is_better = declared[args.metric]["better"] == "lower"
    passthrough = ["--workload", args.workload, "--seed", str(args.seed)]
    for flag in ("seconds", "repeats"):
        if getattr(args, flag) is not None:
            passthrough += [f"--{flag}", str(getattr(args, flag))]

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values: Dict[str, List[float]] = {"parent": [], "change": []}
    simulated = set()
    wins = {"parent": 0, "change": 0}
    all_correct = True
    print(f"{args.metric} on {args.workload}, seed {args.seed}: {args.pairs} alternating pairs")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        result = {side: run_side(sides[side], passthrough) for side in order}
        for side, line in result.items():
            values[side].append(line["metrics"][args.metric]["value"])
            all_correct = all_correct and line["correct"] and line["failed"] == 0
            simulated.add(tuple(
                (name, metric["value"]) for name, metric in sorted(line["metrics"].items())
                if name.startswith("sim_")
            ))
        parent, change = values["parent"][-1], values["change"][-1]
        winner = "tie"
        if parent != change:
            winner = "change" if (change < parent) == lower_is_better else "parent"
            wins[winner] += 1
        print(f"  pair {pair + 1:2d} ({order[0]} first): parent {parent:10.4f}  change {change:10.4f}  {winner}")

    p_q1, p_median, p_q3 = quartiles(values["parent"])
    c_q1, c_median, c_q3 = quartiles(values["change"])
    beyond_iqr = abs(c_median - p_median) > p_q3 - p_q1
    print(f"change wins {wins['change']}/{args.pairs}, parent wins {wins['parent']}/{args.pairs}")
    print(f"parent median {p_median:.4f} [{p_q1:.4f} .. {p_q3:.4f}]")
    print(f"change median {c_median:.4f} [{c_q1:.4f} .. {c_q3:.4f}]  = {c_median / p_median:.3f} x parent")
    print(f"differs by more than the parent's IQR ({p_q3 - p_q1:.4f}): {'yes' if beyond_iqr else 'no'}")
    print(f"sim_* values bit-identical across all {2 * args.pairs} runs: {'yes' if len(simulated) == 1 else 'NO'}")
    better = (c_median < p_median) == lower_is_better
    if args.pairs < 10:
        verdict = "not judged (needs at least 10 pairs)"
    else:
        verdict = "met" if better and beyond_iqr and wins["change"] >= 0.9 * args.pairs else "not met"
    print(f"gain rule (>= 9/10 wins and beyond the IQR): {verdict}")
    if not all_correct:
        print("a run was not correct or had failed operations")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
