"""What one perfbench workload leaves on the heap, cell by cell.

    python tools/heap_census.py --workload baselines_steady
    python tools/heap_census.py --workload openloop_rates --seed 5 --top 8
    python tools/heap_census.py --workload baselines_steady --scale 0.04    # smoke size

The cells are the pinned ones of ``perfbench/workloads.py``, built and driven
through its public builders in the order ``run_workload`` uses: every cell is
built first (cell ``i`` with seed ``seed * 101 + i``), the collector runs
once, then the cells run one after another and each is dropped when it ends.
Nothing is timed against the calibration loop and the collector is left
alone while a cell runs, so the counts are what a benchmark repeat sees.

Printed per cell: collections, seconds and ``collected`` per generation (from
``gc.callbacks``), the objects the collector tracks at the end and how many
appeared per executed position of the global order (all replicas; a no-op
position appends no ledger block), the commonest types among
them, event-heap entries against live ones, what replica 0 retains (its
checkpoint archive and the transactions its records carry, the pipeline's
pending map, each mempool set, on SpotLess the proposals and the commits in
each instance's store and the keys its Ask latch holds, and on HotStuff and
Narwhal-HS the chain nodes), how many unreachable
objects one ``gc.collect()`` finds once the cell is dropped (a finished
cluster is cyclic garbage, so only a collection frees it), and the dataclass
instances built per class while the cell ran.

The constructions come from a second run of an identically seeded copy of
the cell under a profile hook, so the collector figures stay those of an
unprofiled run.  A construction is a call of a generated ``__init__``: a
plain dataclass's reports the file ``<string>`` (one pstats row for every
such class), a :func:`repro.net.record.record` class's ``<record module.Class>``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

from workloads import WORKLOAD_NAMES, bootstrap_repro, build_cell, workload_named  # noqa: E402


class CollectorLog:
    """Collections, seconds and ``collected`` per generation while installed."""

    def __init__(self) -> None:
        self.runs = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._started: Optional[float] = None

    def __enter__(self) -> "CollectorLog":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.runs[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self.collected[generation] += info["collected"]
            self._started = None


def tracked_by_type() -> collections.Counter:
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def retained(replica: Any) -> str:
    """What one replica holds that can grow with the executed history."""
    pool = replica.mempool
    archive = replica.checkpoints.archive
    counts = [
        ("archive", replica.checkpoints.frontier),
        ("archived transactions", sum(len(r.transactions) for e in archive for r in e.records)),
        ("pending", len(replica.pipeline.pending)),
        ("queued", len(pool._queued)),
        ("received", len(pool._received)),
        ("proposed", len(pool._proposed)),
        ("executed", len(pool._executed)),
    ]
    for instance_id, instance in sorted(getattr(replica, "instances", {}).items()):
        counts.append((f"store[{instance_id}]", len(instance.store.proposals())))
        counts.append((f"committed[{instance_id}]", len(instance.store.committed)))
        counts.append((f"asks[{instance_id}]", len(instance._asks._outstanding)))
    if hasattr(replica, "nodes"):
        counts.append(("nodes", len(replica.nodes)))
    return ", ".join(f"{name} {count}" for name, count in counts)


def census_cell(run: Any, top: int) -> None:
    """Run one built cell and print what it leaves; the caller drops it."""
    before = len(gc.get_objects())
    with CollectorLog() as log:
        for _label, step in run.steps():
            step()
    after = tracked_by_type()
    simulator = run.cluster.simulator
    replicas = run.cluster.replicas
    blocks = sum(replica.ledger.height for replica in replicas)
    positions = sum(replica.pipeline.next_execution_position for replica in replicas)
    total = sum(after.values())
    print(f"\n{run.cell.name}: {run.events()} events, {positions} executed positions"
          f" and {blocks} ledger blocks over all replicas")
    for generation in range(3):
        print(f"  gen {generation}: {log.runs[generation]:4d} collections  "
              f"{log.seconds[generation]:.3f} s  collected {log.collected[generation]}")
    print(f"  tracked objects: {before} -> {total}"
          + (f"  ({(total - before) / positions:.2f} per executed position)" if positions else ""))
    print("  commonest: " + ", ".join(f"{kind} {count}" for kind, count in after.most_common(top)))
    print(f"  event heap: {simulator.scheduled_events} entries, {simulator.pending_events} live")
    print(f"  replica 0 retains: {retained(run.cluster.replicas[0])}")


def constructions(cell: Any, seed: int) -> Tuple[collections.Counter, int]:
    """Dataclass instances built per class, and events, while a fresh copy of
    ``cell`` seeded with ``seed`` runs."""
    from repro.net.record import RECORD_FILE_PREFIX

    built: collections.Counter = collections.Counter()

    def count(frame: Any, event: str, arg: Any) -> None:
        code = frame.f_code
        if event == "call" and code.co_name == "__init__" and (
            code.co_filename == "<string>" or code.co_filename.startswith(RECORD_FILE_PREFIX)
        ):
            built[type(frame.f_locals[code.co_varnames[0]]).__name__] += 1

    run = build_cell(cell, seed)
    sys.setprofile(count)
    try:
        for _label, step in run.steps():
            step()
    finally:
        sys.setprofile(None)
    return built, run.events()


def census(name: str, seed: int, scale: float, top: int) -> None:
    workload = workload_named(name, scale)
    seeds = [seed * 101 + index for index in range(len(workload.cells))]
    runs: List[Any] = [build_cell(cell, cell_seed) for cell, cell_seed in zip(workload.cells, seeds)]
    gc.collect()
    print(f"{name}, seed {seed}, scale {scale:g}: {len(runs)} cells, "
          f"{len(gc.get_objects())} tracked objects once all are built")
    for cell, cell_seed in zip(workload.cells, seeds):
        census_cell(runs.pop(0), top)  # popped, so nothing here keeps the finished cell
        print(f"  unreachable once dropped: {gc.collect()}")
        built, events = constructions(cell, cell_seed)
        gc.collect()  # the profiled copy is cyclic garbage as well
        total = sum(built.values())
        print(f"  dataclass constructions: {total} ({total / max(events, 1):.3f} per event): "
              + ", ".join(f"{kind} {count}" for kind, count in built.most_common(top)))


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=12, help="how many types to list per cell")
    parser.add_argument("--scale", type=float, default=1.0, help="horizon multiplier (smoke runs)")
    args = parser.parse_args(argv)
    bootstrap_repro()
    census(args.workload, args.seed, args.scale, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
