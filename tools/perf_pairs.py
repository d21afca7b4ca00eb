"""Alternating parent/change pairs of perfbench workloads: steps 3-4 of
``perfbench/README.md`` "Claiming a gain", as one command.

    git worktree add /tmp/parent HEAD~1
    python tools/perf_pairs.py --parent /tmp/parent --workload spotless_steady --seed 1
    python tools/perf_pairs.py --parent /tmp/parent --workload chaos_recovery openloop_rates
    python tools/perf_pairs.py --parent /tmp/parent --workload all --pairs 4
    python tools/perf_pairs.py --parent /tmp/parent --pairs 2 --repeats 1     # smoke size

Each side is a checkout holding ``perfbench/run.py`` and ``src/repro``; the
change defaults to the checkout this file sits in.  A pair is one
``perfbench/run.py --workload W --seed S --trace 0`` on each side, never two at
once, and the side that goes first alternates.  Printed: the metric per pair
with its winner, wins out of the pairs run (ties count for neither), both
medians with quartiles, the ratio with its base, whether the medians differ by
more than the parent's interquartile range, and whether every ``sim_*`` value
was bit-identical across all runs.  Quartiles are ``statistics.quantiles``'
default (exclusive) method, as in ``perfbench/run.py`` and
``perfbench/calib.py``.  The gain rule (at least ten pairs, the change wins at
least nine tenths of them and the medians differ by more than that range)
decides its line.  Then every end-to-end metric of ``BENCHMARK.json``, from
the same runs: both medians, the ratio, and whether the change is worse than
the parent by more than that metric's bound, so a claim's must-not-move rows
come from the claim's own pairs.  ``--workload`` takes several names, or
``all`` for every workload of ``BENCHMARK.json``: the workloads run one after
another, each with its own pairs and its own block of output, and the run
ends with one summary line per workload (ratio, wins, gain rule), each from
that workload's pairs alone.  The exit code is non-zero only when a run was
not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

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
    """(q1, median, q3) by the benchmark's definition (exclusive method); a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Judgement(NamedTuple):
    """The gain rule applied to one metric's paired values."""

    change_wins: int
    parent_wins: int
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    beyond_iqr: bool
    verdict: str


def judge(parent: Sequence[float], change: Sequence[float], lower_is_better: bool) -> Judgement:
    """Pair ``i`` is ``(parent[i], change[i])``: wins, quartiles of each side,
    whether the medians differ by more than the parent's IQR, and the verdict
    (at least ten pairs, at least nine tenths won by the change, medians
    beyond the IQR and on the better side)."""
    change_wins = sum(1 for p, c in zip(parent, change) if p != c and (c < p) == lower_is_better)
    parent_wins = sum(1 for p, c in zip(parent, change) if p != c) - change_wins
    p_q, c_q = quartiles(parent), quartiles(change)
    beyond_iqr = abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]
    better = c_q[1] != p_q[1] and (c_q[1] < p_q[1]) == lower_is_better
    if len(parent) < 10:
        verdict = "not judged (needs at least 10 pairs)"
    else:
        verdict = "met" if better and beyond_iqr and change_wins >= 0.9 * len(parent) else "not met"
    return Judgement(change_wins, parent_wins, p_q, c_q, beyond_iqr, verdict)


def worse_beyond_bound(metric: Dict[str, Any], parent_median: float, change_median: float) -> Tuple[float, bool]:
    """(change / parent, whether the change is worse by more than the
    metric's bound), the ``worse`` test of ``perfbench/compare.py``."""
    if parent_median == change_median:
        return 1.0, False
    ratio = change_median / parent_median if parent_median else float("inf")
    change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    return ratio, change > metric["bound"]


def workloads_named(names: Sequence[str], declared: Sequence[str]) -> List[str]:
    """The workloads ``--workload`` names, in the order given and each once;
    ``all`` stands for every declared workload, in declaration order.
    Raises ValueError on a name the benchmark does not declare."""
    chosen: List[str] = []
    for name in names:
        expanded = list(declared) if name == "all" else [name]
        for workload in expanded:
            if workload not in declared:
                raise ValueError(f"unknown workload {workload!r}; one of {', '.join(declared)} or all")
            if workload not in chosen:
                chosen.append(workload)
    return chosen


def summary_line(workload: str, metric: str, claim: Judgement, pairs: int) -> str:
    """One workload's verdict on one line: the ratio of medians, wins of
    each side and the gain rule, from that workload's pairs."""
    ratio = claim.change[1] / claim.parent[1] if claim.parent[1] else float("inf")
    return (
        f"  {workload:<18} {metric} {ratio:.3f} x parent, change wins {claim.change_wins}/{pairs}, "
        f"parent wins {claim.parent_wins}/{pairs}, gain rule: {claim.verdict}"
    )


def run_workload(
    workload: str, args: argparse.Namespace, sides: Dict[str, Path], declared: Dict[str, Dict[str, Any]]
) -> Tuple[Judgement, bool]:
    """Run ``args.pairs`` alternating pairs of one workload and print its
    block; the gain rule on ``args.metric`` and whether every run was
    correct."""
    lower_is_better = declared[args.metric]["better"] == "lower"
    passthrough = ["--workload", workload, "--seed", str(args.seed)]
    for flag in ("seconds", "repeats"):
        if getattr(args, flag) is not None:
            passthrough += [f"--{flag}", str(getattr(args, flag))]

    # side -> metric -> one value per pair
    values: Dict[str, Dict[str, List[float]]] = {side: {name: [] for name in declared} for side in sides}
    simulated = set()
    all_correct = True
    print(f"{args.metric} on {workload}, seed {args.seed}: {args.pairs} alternating pairs")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        result = {side: run_side(sides[side], passthrough) for side in order}
        for side, line in result.items():
            for name in declared:
                values[side][name].append(line["metrics"][name]["value"])
            all_correct = all_correct and line["correct"] and line["failed"] == 0
            simulated.add(tuple(
                (name, metric["value"]) for name, metric in sorted(line["metrics"].items())
                if name.startswith("sim_")
            ))
        parent, change = values["parent"][args.metric][-1], values["change"][args.metric][-1]
        winner = "tie"
        if parent != change:
            winner = "change" if (change < parent) == lower_is_better else "parent"
        print(f"  pair {pair + 1:2d} ({order[0]} first): parent {parent:10.4f}  change {change:10.4f}  {winner}")

    claim = judge(values["parent"][args.metric], values["change"][args.metric], lower_is_better)
    (p_q1, p_median, p_q3), (c_q1, c_median, c_q3) = claim.parent, claim.change
    print(f"change wins {claim.change_wins}/{args.pairs}, parent wins {claim.parent_wins}/{args.pairs}")
    print(f"parent median {p_median:.4f} [{p_q1:.4f} .. {p_q3:.4f}]")
    print(f"change median {c_median:.4f} [{c_q1:.4f} .. {c_q3:.4f}]  = {c_median / p_median:.3f} x parent")
    print(f"differs by more than the parent's IQR ({p_q3 - p_q1:.4f}): {'yes' if claim.beyond_iqr else 'no'}")
    print(f"sim_* values bit-identical across all {2 * args.pairs} runs: {'yes' if len(simulated) == 1 else 'NO'}")
    print(f"gain rule (>= 9/10 wins and beyond the IQR): {claim.verdict}")
    print(f"every end-to-end metric, medians over the same {args.pairs} pairs:")
    print(f"  {'metric':<22}{'parent':>14}{'change':>14}{'change/parent':>15}  worse beyond bound")
    for name, metric in declared.items():
        p_median = quartiles(values["parent"][name])[1]
        c_median = quartiles(values["change"][name])[1]
        ratio, worse = worse_beyond_bound(metric, p_median, c_median)
        print(f"  {name:<22}{p_median:>14.4f}{c_median:>14.4f}{ratio:>15.4f}  "
              f"{'YES' if worse else 'no'} (bound {metric['bound']:.0%}, {metric['better']} is better)")
    if not all_correct:
        print("a run was not correct or had failed operations")
    return claim, all_correct


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=HERE, help="checkout of the change (default: this one)")
    parser.add_argument(
        "--workload", nargs="+", default=["spotless_steady"], help="one or more workloads, or all"
    )
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
    try:
        workloads = workloads_named(args.workload, [row["name"] for row in spec["workloads"]])
    except ValueError as error:
        parser.error(str(error))

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    claims = {}
    all_correct = True
    for index, workload in enumerate(workloads):
        if index:
            print()
        claims[workload], correct = run_workload(workload, args, sides, declared)
        all_correct = all_correct and correct
    print(f"summary, seed {args.seed}, each line from its workload's own {args.pairs} pairs:")
    for workload, claim in claims.items():
        print(summary_line(workload, args.metric, claim, args.pairs))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
