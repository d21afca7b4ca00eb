"""The pinned calibration loop, and a check that normalising by it works here.

``host_calib_ratio`` counts a workload's wall time in units of this loop:
every timed step of a workload is bracketed by one run of the loop before
and one after, in the same process, and the step's wall time is divided by
their mean.  The loop does what the simulator's hot path does - heap pushes
and pops of tuples, dict stores, bound-method calls, small-tuple allocation -
so a slower or busier machine slows both by about the same factor and the
ratio stays put.  The collector is off inside the loop: its allocations would
otherwise trigger collections whose cost depends on how large the workload's
heap has grown, and a clock must not depend on what it times.

The loop is pinned: changing ``ROUNDS`` or the loop body rebases every
``host_calib_ratio`` ever recorded, so it is its own change with a fresh
baseline, never part of a change that claims a gain.

``python perfbench/calib.py --check`` verifies the normalisation on the box
at hand instead of assuming it (see README.md, "Why raw wall time is not
gated").
"""

from __future__ import annotations

import argparse
import gc
import heapq
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Iterations of the pinned loop (~25 ms on the 2-core reference box): short
#: enough to run between 0.1-0.3 s workload steps, whose speed it must track.
ROUNDS = 20_000
#: The loop's wall time on the reference box when it is quiet.  ``setup_s`` is
#: set-up wall time counted in loops, times this, so it stays in seconds.
REFERENCE_S = 0.023
#: ``--check`` runs this many back-to-back sets of this many triples.
SETS = 4
TRIPLES = 8


class _Sink:
    """A bound-method call target with one attribute store, like an actor."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def deliver(self, item: Tuple[float, int, int]) -> None:
        self.count += item[2] & 1


def _loop(heap: list, table: dict, deliver: Callable[[tuple], None]) -> None:
    push, pop = heapq.heappush, heapq.heappop
    for i in range(ROUNDS):
        # A multiplicative scramble keeps heap order and dict slots from
        # being sequential without drawing on any RNG state.
        key = (i * 2654435761) & 0xFFFF
        push(heap, (key * 1e-4, 0, i, (i, key)))
        table[key] = (i, key)
        if i & 3 == 3:
            for _ in range(3):
                time_, _priority, seq, payload = pop(heap)
                deliver((time_, payload[1], seq))
    while heap:
        deliver(pop(heap)[:3])


def calibrate() -> float:
    """Run the pinned loop once; return its wall time in seconds."""
    heap: List[tuple] = []
    table: Dict[int, Tuple[int, int]] = {}
    sink = _Sink()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop(heap, table, sink.deliver)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if sink.count <= 0 or not table:
        raise RuntimeError("calibration loop produced an impossible result")
    return elapsed


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the contract's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _check() -> int:
    """Back-to-back sets of (calib, short SpotLess cell, calib) triples: does
    the ratio hold still where raw wall time does not?"""
    from workloads import ClusterCell, Meter, bootstrap_repro, build_cell, run_cell

    bootstrap_repro()
    cell = ClusterCell("check", "spotless", 4, 0.5, 4)
    medians: Dict[str, List[float]] = {"raw wall (s)": [], "host_calib_ratio (x)": []}
    for index in range(SETS):
        raws: List[float] = []
        ratios: List[float] = []
        for _ in range(TRIPLES):
            with Meter(time.time()) as meter:
                record = run_cell(build_cell(cell, seed=7), meter)
            raws.append(record["wall_s"])
            ratios.append(record["calib_units"])
        medians["raw wall (s)"].append(statistics.median(raws))
        medians["host_calib_ratio (x)"].append(statistics.median(ratios))
        print(f"set {index}: raw wall median {statistics.median(raws):.4f} s (spread {spread(raws):.1%}), "
              f"host_calib_ratio median {statistics.median(ratios):.2f} x (spread {spread(ratios):.1%})")
    for label, values in medians.items():
        print(f"set-to-set range of medians, {label}: "
              f"{(max(values) - min(values)) / statistics.median(values):.1%}")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="the pinned calibration loop")
    parser.add_argument("--check", action="store_true",
                        help="compare raw-wall spread with host_calib_ratio spread on this box")
    args = parser.parse_args(argv)
    if args.check:
        return _check()
    samples = [calibrate() for _ in range(20)]
    print(f"calibration loop: median {statistics.median(samples) * 1e3:.2f} ms over 20 runs "
          f"(min {min(samples) * 1e3:.2f}, max {max(samples) * 1e3:.2f}, spread {spread(samples):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
