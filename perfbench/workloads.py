"""The four pinned workloads and the code that runs one of them once.

Everything here drives the simulator through its public API only
(``SimulatedCluster.for_protocol``, ``ScenarioRunner``, ``LoadProfile``) and
reads results from public attributes after the run.  One call of
:func:`run_workload` is one *repeat*: build every cell (set-up), then run the
cells as a sequence of timed steps, each bracketed by the calibration loop
(see ``calib.py``), then check and summarise the outcome.

Why these four (README.md has the long form): ``spotless_steady`` is the
paper's protocol on its happy path, where ``core/`` does most of the work;
``baselines_steady`` bypasses ``core/`` so an engine or network change shows
there first; ``chaos_recovery`` is the only one that runs the fault,
recovery and oracle layers; ``openloop_rates`` offers load as a rate, so
latency rises before throughput stops.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from calib import REFERENCE_S, calibrate, spread

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Client-latency limit of the open-loop sweep (seconds).
SLO_SECONDS = 0.050


def bootstrap_repro() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero if there is no simulator."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {src}/repro - nothing to measure", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterCell:
    """One fault-free cluster run, driven in ``slices`` equal time slices.

    With ``rate`` set the cell is open loop: ``rate`` txn/s are offered for
    ``horizon - drain`` seconds and nothing during the final ``drain``, so
    the backlog can clear.  Otherwise it is the closed loop of 3 clients x 4
    outstanding requests.
    """

    name: str
    protocol: str
    replicas: int
    horizon: float
    slices: int
    batch: int = 8
    rate: Optional[float] = None
    drain: float = 0.0


@dataclass(frozen=True)
class ScenarioCell:
    """One ``single_fault_spec`` chaos run with the invariant oracle armed."""

    name: str
    protocol: str
    fault: str
    f: int
    horizon: float


Cell = Union[ClusterCell, ScenarioCell]


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one counted operation is: a whole cell, or one offered transaction.
    op: str
    cells: Tuple[Cell, ...]


def _open(protocol: str, rate: int, load_for: float) -> ClusterCell:
    return ClusterCell(
        f"{protocol}-{rate}", protocol, 4, round(load_for + 0.3, 6), 4, batch=4, rate=float(rate), drain=0.3
    )


def _chaos(protocol: str, fault: str, f: int, horizon: float) -> ScenarioCell:
    return ScenarioCell(f"{protocol}-{fault}-f{f}", protocol, fault, f, horizon)


# Horizons are sized so one body is ~150 calibration loops (3-5 s on the
# 2-core reference box, whose speed moves between ~20 and ~33 ms a loop): the
# contract caps a whole benchmark at 92 runs in 3420 s, which leaves at most
# ~30 s a run for five fresh-process repeats when the box is slow.  RCC costs
# ~13 host-seconds per simulated second at n=4, SpotLess ~1.6 (n=4) and ~5.5
# (n=7), HotStuff ~0.3, hence the unequal horizons: each protocol gets a
# similar share of the body.
WORKLOADS: Tuple[Workload, ...] = (
    # One long cell carries the growth-with-horizon signal (it alone has
    # enough slices for slice_q4_over_q1).  The short cells are there because
    # SpotLess is seed-sensitive and more so the longer it runs (throughput
    # varies 3 % across seeds at 0.3 s, 7.5 % at 1.5 s): a geometric mean over
    # six differently-seeded cells holds still where two long cells do not.
    Workload("spotless_steady", "cell", (
        ClusterCell("spotless-n4-long", "spotless", 4, 0.8, 8),
        ClusterCell("spotless-n4-a", "spotless", 4, 0.3, 2),
        ClusterCell("spotless-n4-b", "spotless", 4, 0.3, 2),
        ClusterCell("spotless-n4-c", "spotless", 4, 0.3, 2),
        ClusterCell("spotless-n7-a", "spotless", 7, 0.1, 2),
        ClusterCell("spotless-n7-b", "spotless", 7, 0.1, 2),
    )),
    Workload("baselines_steady", "cell", (
        ClusterCell("pbft-n4", "pbft", 4, 0.8, 8),
        ClusterCell("rcc-n4", "rcc", 4, 0.18, 8),
        ClusterCell("hotstuff-n4", "hotstuff", 4, 1.6, 4),
        ClusterCell("narwhal-hs-n4", "narwhal-hs", 4, 1.6, 4),
    )),
    # Every protocol x every fault kind at f=1 except RCC, whose cells cost
    # ~8 host-seconds per simulated second: it keeps one short crash cell.
    # PBFT carries the f=2 (n=7) cell because SpotLess at n=7 costs 4x more.
    Workload("chaos_recovery", "cell", (
        _chaos("spotless", "crash", 1, 0.5),
        _chaos("spotless", "partition", 1, 0.5),
        _chaos("spotless", "A2", 1, 0.5),
        _chaos("pbft", "crash", 1, 0.6),
        _chaos("pbft", "partition", 1, 0.6),
        _chaos("pbft", "A2", 1, 0.6),
        _chaos("pbft", "crash", 2, 0.6),
        _chaos("hotstuff", "crash", 1, 0.6),
        _chaos("hotstuff", "partition", 1, 0.6),
        _chaos("hotstuff", "A2", 1, 0.6),
        _chaos("rcc", "crash", 1, 0.12),
    )),
    # Absolute pinned rates, so the operating points never move with the
    # code.  Each protocol has rates clearly under its knee and one clearly
    # over it, so which rates meet the limit does not flip from seed to seed.
    # Everything offered still confirms inside the drain window: no
    # operation fails.
    Workload("openloop_rates", "transaction", (
        _open("spotless", 1100, 0.25),
        _open("spotless", 1650, 0.25),
        _open("spotless", 2750, 0.25),
        _open("pbft", 21000, 0.08),
        _open("pbft", 42000, 0.08),
    )),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload_named(name: str, scale: float = 1.0) -> Workload:
    """The pinned workload, or a miniature with horizons scaled by ``scale``."""
    for workload in WORKLOADS:
        if workload.name == name:
            break
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOAD_NAMES}")
    if scale == 1.0:
        return workload
    cells = []
    for cell in workload.cells:
        changes = {"horizon": round(cell.horizon * scale, 6)}
        if isinstance(cell, ClusterCell):
            changes["drain"] = round(cell.drain * scale, 6)
        cells.append(replace(cell, **changes))
    return replace(workload, cells=tuple(cells))


# ----------------------------------------------------------------------
# timing: steps bracketed by calibration, spans, collector accounting
# ----------------------------------------------------------------------


@dataclass
class Step:
    name: str
    wall_s: float
    cpu_s: float
    #: Wall time in units of the calibration loop (mean of the run before
    #: and the run after the step).
    calib_units: float
    events: int = 0


class Meter:
    """Times steps against the calibration loop and records spans.

    Spans are ``(name, start, end, parent)`` with times in seconds since
    ``origin``; they stay in memory and the parent process writes them out.
    Collector pauses are timed through ``gc.callbacks`` and counted only
    while a step runs.
    """

    def __init__(self, origin: float, profiler: Any = None) -> None:
        self.origin = origin
        self.profiler = profiler
        self.chunks: List[float] = []
        self.steps: List[Step] = []
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_started: Optional[float] = None
        self._in_step = False

    def __enter__(self) -> "Meter":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if not self._in_step:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def span(self, name: str, start: float, end: float, parent: Optional[str] = None) -> None:
        self.spans.append((name, start - self.origin, end - self.origin, parent))

    def chunk(self, parent: Optional[str] = None) -> float:
        start = time.time()
        elapsed = calibrate()
        self.chunks.append(elapsed)
        self.span("calib", start, start + elapsed, parent)
        return elapsed

    def step(self, name: str, fn: Callable[[], None], parent: str) -> Step:
        """Run ``fn`` timed; the last chunk taken is its 'before' calibration."""
        before = self.chunks[-1]
        profiler = self.profiler
        started = time.time()
        self._in_step = True
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            fn()
        finally:
            if profiler is not None:
                profiler.disable()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            self._in_step = False
        self.span(name, started, started + wall, parent)
        after = self.chunk(parent)
        step = Step(name, wall, cpu, wall / ((before + after) / 2.0))
        self.steps.append(step)
        return step


# ----------------------------------------------------------------------
# running one cell
# ----------------------------------------------------------------------


def _tail(ordered: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile): p99 given >= 1,000 samples, else the highest
    percentile that still has at least ten samples beyond it."""
    count = len(ordered)
    if count >= 1000:
        index = math.ceil(0.99 * count) - 1
    else:
        index = max(0, count - 11)
    return ordered[index], (index + 1) / count


def _spotless_counts(replicas: Sequence[Any]) -> Dict[str, int]:
    instances = [inst for r in replicas for inst in getattr(r, "instances", {}).values()]
    useful = 0
    for replica in replicas:
        pool = replica.mempool
        for record in getattr(replica, "commit_log", ()):
            for digest in record.transaction_digests:
                transaction = pool.get(digest)
                if transaction is not None and not transaction.is_noop():
                    useful += 1
                    break
    counts = {
        name: sum(getattr(inst, name) for inst in instances)
        for name in ("views_entered", "timeouts", "asks_sent", "syncs_sent")
    }
    counts["useful_views"] = useful
    return counts


def _observe(cluster: Any, horizon: float) -> Dict[str, Any]:
    """Read one finished cluster's outcome and layer counters (public attributes)."""
    replicas, clients = cluster.replicas, cluster.clients
    ordered = sorted(s for client in clients for s in client.latency.samples)
    confirmed = sum(client.confirmed_transactions for client in clients)
    depths = [getattr(replica, "executed_transactions", 0) for replica in replicas]
    record: Dict[str, Any] = {
        "confirmed": confirmed,
        "executed_per_replica": depths,
        "samples": len(ordered),
        "txn_per_s": confirmed / horizon,
        "events": cluster.simulator.processed_events,
    }
    if ordered:
        tail, percentile = _tail(ordered)
        within = sum(1 for s in ordered if s <= SLO_SECONDS)
        record.update(
            p50_ms=statistics.median(ordered) * 1e3,
            tail_ms=tail * 1e3,
            tail_percentile=round(percentile, 4),
            max_ms=ordered[-1] * 1e3,
            within_slo_per_s=within / horizon,
        )
    liveness: Dict[str, int] = {}
    for replica in replicas:
        for name, value in replica.liveness_counters().items():
            liveness[name] = liveness.get(name, 0) + value
    counter = cluster.metrics.counter
    record["counts"] = {
        "msgs": counter("network.messages_sent").value,
        "bytes": counter("network.bytes_sent").value,
        "dropped": counter("network.messages_dropped").value,
        **_spotless_counts(replicas),
        "retransmissions": sum(c.retransmissions for c in clients),
        "backlog": sum(c.unconfirmed_count() for c in clients),
        "timeout_fires": liveness.get("progress_timeout_fires", 0) + liveness.get("view_timeouts", 0),
        "view_changes": liveness.get("view_changes", 0),
        "sync_requests": sum(r.state_transfer.requests_sent for r in replicas)
        + liveness.get("chain_syncs_requested", 0),
        "sync_retries": liveness.get("chain_sync_retries", 0),
        "sync_rotations": liveness.get("chain_sync_rotations", 0),
        "transfers_completed": sum(r.state_transfer.transfers_completed for r in replicas),
        "checkpoints_formed": sum(r.checkpoints.certificates_formed for r in replicas),
    }
    return record


def _divergence(cluster: Any) -> Optional[str]:
    """Why the replicas disagree, or None when they do not."""
    try:
        cluster.assert_no_divergence()
    except AssertionError as error:
        return f"divergence: {error}"
    by_depth: Dict[int, bytes] = {}
    for replica in cluster.replicas:
        depth = len(replica.executed_transaction_digests())
        digest = replica.state_digest()
        if by_depth.setdefault(depth, digest) != digest:
            return f"state digests differ at executed depth {depth}"
    return None


class ClusterRun:
    """A built, not yet started cluster and the steps that run it."""

    def __init__(self, cell: ClusterCell, seed: int) -> None:
        from repro.bench.cluster import SimulatedCluster
        from repro.workload.arrival import LoadProfile

        self.cell = cell
        arrival = None
        if cell.rate is not None:
            arrival = LoadProfile.constant(cell.rate, round(cell.horizon - cell.drain, 6))
        self.cluster = SimulatedCluster.for_protocol(
            cell.protocol, num_replicas=cell.replicas, batch_size=cell.batch,
            clients=3, outstanding_per_client=4, seed=seed, arrival=arrival,
        )

    def steps(self) -> Iterator[Tuple[str, Callable[[], None]]]:
        cluster, width = self.cluster, self.cell.horizon / self.cell.slices

        def first() -> None:
            cluster.start()
            cluster.run_additional(width)

        yield "run_slice[0]", first
        for index in range(1, self.cell.slices):
            yield f"run_slice[{index}]", lambda: cluster.run_additional(width)

    def events(self) -> int:
        return self.cluster.simulator.processed_events

    def collect(self, meter: Meter) -> Dict[str, Any]:
        record = _observe(self.cluster, self.cell.horizon)
        record["failed"] = _divergence(self.cluster)
        if self.cell.rate is not None:
            pool = self.cluster.clients[0]
            record["rate"] = self.cell.rate
            record["offered"] = pool.offered_transactions
            record["unconfirmed"] = pool.unconfirmed_count()
        return record


class ScenarioRun:
    """A built ``ScenarioRunner``; the whole run is one step.

    The oracle's two public entry points are wrapped on the instance so the
    time spent in invariant checks is measured from outside.
    """

    def __init__(self, cell: ScenarioCell, seed: int, spec: Any = None, flight: bool = False) -> None:
        from repro.scenarios.runner import ScenarioRunner
        from repro.scenarios.spec import single_fault_spec

        self.cell = cell
        if spec is None:
            spec = single_fault_spec(cell.protocol, cell.fault, f=cell.f, duration=cell.horizon, seed=seed)
        self.runner = ScenarioRunner(spec, flight=flight)
        self.cluster = self.runner.cluster
        self.result: Any = None
        self.check_s = 0.0
        self._final: Optional[Tuple[float, float]] = None
        oracle = self.runner.oracle
        check_now, final_check = oracle.check_now, oracle.final_check

        def timed_check() -> None:
            start = time.perf_counter()
            check_now()
            self.check_s += time.perf_counter() - start

        def timed_final(heal_time: Optional[float] = None) -> Any:
            start = time.time()
            try:
                return final_check(heal_time=heal_time)
            finally:
                self._final = (start, time.time())

        oracle.check_now = timed_check
        oracle.final_check = timed_final

    def steps(self) -> Iterator[Tuple[str, Callable[[], None]]]:
        def run() -> None:
            self.result = self.runner.run()

        yield "run_slice[0]", run

    def events(self) -> int:
        return self.cluster.simulator.processed_events

    def collect(self, meter: Meter) -> Dict[str, Any]:
        record = _observe(self.cluster, self.cell.horizon)
        result = self.result
        if self._final is not None:
            meter.span("oracle.final_check", *self._final, parent=self.cell.name)
        failed = None
        if result.violations:
            failed = f"oracle: {result.violations[0].invariant}: {result.violations[0].detail}"
        elif result.stragglers:
            failed = f"stragglers: {result.stragglers}"
        record["failed"] = failed
        record["counts"].update(
            oracle_checks=result.checks_run,
            oracle_check_s=self.check_s,
            oracle_violations=len(result.violations),
        )
        return record


def build_cell(cell: Cell, seed: int) -> Union[ClusterRun, ScenarioRun]:
    if isinstance(cell, ClusterCell):
        return ClusterRun(cell, seed)
    return ScenarioRun(cell, seed)


def run_cell(run: Union[ClusterRun, ScenarioRun], meter: Meter) -> Dict[str, Any]:
    """Run one built cell's steps, then check and read it (untimed)."""
    name = run.cell.name
    meter.chunk(name)
    first = len(meter.steps)
    error: Optional[str] = None
    events = 0
    for label, fn in run.steps():
        try:
            step = meter.step(label, fn, name)
        except Exception as exc:  # a crashed cell is a failed operation, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
            break
        step.events, events = run.events() - events, run.events()
    started = time.time()
    if error is None:
        record = run.collect(meter)
        if record["failed"] is None and record["confirmed"] == 0:
            record["failed"] = "nothing confirmed"
    else:
        record = {"failed": error, "confirmed": 0, "executed_per_replica": [], "events": events, "counts": {}}
    meter.span("collect", started, time.time(), name)
    steps = meter.steps[first:]
    record.update(
        name=name,
        protocol=run.cell.protocol,
        horizon_s=run.cell.horizon,
        wall_s=sum(s.wall_s for s in steps),
        calib_units=sum(s.calib_units for s in steps),
    )
    quarter = len(steps) // 4
    if quarter and all(s.events for s in steps):
        def cost(part: Sequence[Step]) -> float:
            return sum(s.calib_units for s in part) / sum(s.events for s in part)

        record["slice_q4_over_q1"] = cost(steps[-quarter:]) / cost(steps[:quarter])
    return record


# ----------------------------------------------------------------------
# one repeat of one workload
# ----------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_metrics(workload: Workload, cells: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated-clock outcome: exact for a fixed seed.  Failed cells
    are counted as failed operations and contribute no latency sample."""
    good = [c for c in cells if c["failed"] is None]
    if workload.op == "transaction":
        best: Dict[str, float] = {}
        for cell in cells:
            meets = (
                cell["failed"] is None and cell["unconfirmed"] == 0
                and cell["tail_ms"] <= SLO_SECONDS * 1e3
            )
            best[cell["protocol"]] = max(best.get(cell["protocol"], 0.0), cell["rate"] if meets else 0.0)
        at_slo = geomean(list(best.values()))
    else:
        # A closed loop offers exactly what it confirms, so the rate it
        # sustains inside the limit is its within-limit confirmation rate.
        at_slo = geomean([c["within_slo_per_s"] for c in good])
    return {
        "sim_txn_per_s": geomean([c["txn_per_s"] for c in good]),
        "sim_p50_ms": geomean([c["p50_ms"] for c in good]),
        "sim_p99_ms": geomean([c["tail_ms"] for c in good]),
        "sim_outage_ms": geomean([c["max_ms"] for c in good]),
        "sim_max_rate_at_slo": at_slo,
    }


def count_ops(workload: Workload, cells: Sequence[Dict[str, Any]]) -> Tuple[int, int]:
    if workload.op == "transaction":
        attempted = sum(c.get("offered", 0) for c in cells)
        failed = sum(c.get("unconfirmed", 0) if c["failed"] is None else c.get("offered", 0) for c in cells)
        # A cell that died before offering anything still counts as one failure.
        dead = sum(1 for c in cells if c["failed"] is not None and not c.get("offered"))
        return attempted + dead, failed + dead
    return len(cells), sum(1 for c in cells if c["failed"] is not None)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_counts(cells: Sequence[Dict[str, Any]], body_wall: float) -> Dict[str, float]:
    """Exact per-layer counts summed over the cells (all repeat for a seed,
    except the two that divide by host time)."""
    total: collections.Counter = collections.Counter()
    for cell in cells:
        total.update(cell["counts"])
    get = total.__getitem__  # a Counter reads 0 for a counter no cell has
    events = sum(c["events"] for c in cells)
    confirmed = sum(c["confirmed"] for c in cells)
    spotless_confirmed = sum(c["confirmed"] for c in cells if c["protocol"] == "spotless")
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_txn": _ratio(events, confirmed),
        "sim.engine.host_us_per_event": _ratio(body_wall * 1e6, events),
        "sim.network.msgs_per_txn": _ratio(get("msgs"), confirmed),
        "sim.network.bytes_per_txn": _ratio(get("bytes"), confirmed),
        "sim.network.dropped_share": _ratio(get("dropped"), get("msgs")),
        "core.views_per_txn": _ratio(get("views_entered"), spotless_confirmed),
        "core.useful_view_ratio": _ratio(get("useful_views"), get("views_entered")),
        "core.timeouts": get("timeouts"),
        "core.asks_sent": get("asks_sent"),
        "core.syncs_sent": get("syncs_sent"),
        "core.client.retransmissions": get("retransmissions"),
        "core.client.backlog_at_end": get("backlog"),
        "protocols.timeout_fires": get("timeout_fires"),
        "protocols.view_changes": get("view_changes"),
        "recovery.sync_requests": get("sync_requests"),
        "recovery.sync_retries": get("sync_retries"),
        "recovery.sync_rotations": get("sync_rotations"),
        "recovery.transfers_completed": get("transfers_completed"),
        "recovery.checkpoints_formed": get("checkpoints_formed"),
        "scenarios.oracle.checks": get("oracle_checks"),
        "scenarios.oracle.ms_per_check": _ratio(get("oracle_check_s") * 1e3, get("oracle_checks")),
        "scenarios.oracle.violations": get("oracle_violations"),
    }


def outcome_digest(cells: Sequence[Dict[str, Any]]) -> str:
    """Digest over (confirmed count, executed depth per replica) per cell."""
    outcome = [(c["name"], c["confirmed"], tuple(c["executed_per_replica"])) for c in cells]
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


def run_workload(
    workload: Workload,
    seed: int,
    started_at: Optional[float] = None,
    profiler: Any = None,
) -> Dict[str, Any]:
    """One repeat: set up, run the timed body, check, and summarise.

    ``started_at`` is the ``time.time()`` at which the process was spawned,
    so set-up covers interpreter start and imports as a user pays them.
    """
    entered = time.time()
    origin = started_at if started_at is not None else entered
    with Meter(origin, profiler) as meter:
        meter.span("setup", origin, entered)
        # Cell seeds differ so a geometric mean over cells averages over
        # network jitter rather than repeating one draw.
        runs = [build_cell(cell, seed * 101 + index) for index, cell in enumerate(workload.cells)]
        gc.collect()
        built = time.time()
        meter.span("build", entered, built, "setup")
        cells = []
        while runs:  # popped, so a finished cluster is garbage before the next one runs
            cells.append(run_cell(runs.pop(0), meter))
    body_wall = sum(s.wall_s for s in meter.steps)
    calib_s = statistics.median(meter.chunks)
    attempted, failed = count_ops(workload, cells)
    ratios = [c["slice_q4_over_q1"] for c in cells if "slice_q4_over_q1" in c]
    return {
        "workload": workload.name,
        "seed": seed,
        # Set-up is 0.2 s of imports: too short to bracket, and raw it follows
        # the box's speed (medians of ten runs moved 20 % between back-to-back
        # sets, 2 % counted in this repeat's calibration loops).
        "setup_s": (built - origin) * REFERENCE_S / calib_s,
        "setup_wall_s": built - origin,
        "host_calib_ratio": sum(s.calib_units for s in meter.steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim_metrics(workload, cells),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "outcome_digest": outcome_digest(cells),
        "counts": _layer_counts(cells, body_wall),
        "pyrt": {
            "pyrt.gc_s": meter.gc_s,
            "pyrt.gc_share": _ratio(meter.gc_s, body_wall),
            "pyrt.gc_gen2_collections": meter.gc_gen2,
        },
        "harness": {
            "harness.wall_s": body_wall,
            "harness.cpu_s": sum(s.cpu_s for s in meter.steps),
            "harness.calib_s": calib_s,
            "harness.calib_spread": spread(meter.chunks),
            # 0 where no cell is sliced (chaos cells run as one step).
            "harness.slice_q4_over_q1": geomean(ratios),
        },
        "confirmed": sum(c["confirmed"] for c in cells),
        "cells": cells,
        "spans": meter.spans,
    }
