"""Compare two perfbench result files: ``python perfbench/compare.py A.json B.json``.

A is the base (the parent commit), B the candidate.  One row per workload
and end-to-end metric: both medians with their quartiles, the ratio B/A with
its base, and a verdict against the bound ``BENCHMARK.json`` fixes for that
metric:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``unresolved`` - the run-to-run spread of either side (interquartile range
  over median) exceeds the bound, so the comparison cannot tell;
* ``better``     - B's median is better by more than the bound;
* ``same``       - anything else.

Exit code 1 on any ``worse``, or when B fails a larger share of the
operations it attempted than A.  A verdict here screens for regressions; a
*gain* is claimed by the paired procedure in README.md, not by this table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent


def _spread(quartiles: Sequence[float]) -> float:
    q1, median, q3 = quartiles
    return (q3 - q1) / median if median else 0.0


def verdict(metric: Dict[str, Any], a: Sequence[float], b: Sequence[float]) -> Tuple[str, float]:
    """(verdict, B/A) for one metric given both sides' (q1, median, q3)."""
    bound = metric["bound"]
    ratio = b[1] / a[1] if a[1] else float("inf")
    change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if change > bound:
        return "worse", ratio
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", ratio
    return ("better" if change < -bound else "same"), ratio


def compare(spec: Dict[str, Any], base: Dict[str, Any], cand: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether the candidate regressed."""
    lines = [f"{'workload':<18}{'metric':<22}{'A median [q1..q3]':>34}{'B median [q1..q3]':>34}"
             f"{'B/A':>9}  verdict"]
    regressed = False
    for name, a in base["workloads"].items():
        b = cand["workloads"].get(name)
        if b is None:
            lines.append(f"{name:<18}missing from B")
            regressed = True
            continue
        for metric in spec["end_to_end"]:
            qa, qb = a["quartiles"][metric["name"]], b["quartiles"][metric["name"]]
            word, ratio = verdict(metric, qa, qb)
            regressed |= word == "worse"

            def cell(q: Sequence[float]) -> str:
                return f"{q[1]:.4f} [{q[0]:.4f}..{q[2]:.4f}]"

            lines.append(f"{name:<18}{metric['name']:<22}{cell(qa):>34}{cell(qb):>34}"
                         f"{ratio:>9.4f}  {word} (bound {metric['bound']:.0%}, base A={qa[1]:.4f} {metric['unit']})")
        share_a = a["ops_failed"] / max(1, a["ops_attempted"])
        share_b = b["ops_failed"] / max(1, b["ops_attempted"])
        word = "worse" if share_b > share_a else "same"
        regressed |= share_b > share_a
        lines.append(f"{name:<18}{'ops_failed/attempted':<22}{share_a:>34.6f}{share_b:>34.6f}{'':>9}  {word}")
        if a["outcome_digest"] != b["outcome_digest"]:
            lines.append(f"{name:<18}outcome_digest differs: A {a['outcome_digest']}, B {b['outcome_digest']}"
                         " (the simulated outcome changed, or the seeds differ)")
    return lines, regressed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    base, cand = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    lines, regressed = compare(spec, base, cand)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
