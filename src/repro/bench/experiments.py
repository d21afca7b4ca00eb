"""Experiment definitions: one row of :data:`FIGURES` per table/figure of the evaluation.

Every ``run`` returns a list of row dictionaries — the same series the
corresponding figure plots — and the benchmark harness (``benchmarks/``)
prints them with :func:`repro.analysis.report.format_table` so the output can
be compared against the paper side by side.  EXPERIMENTS.md records the
paper-versus-measured comparison for each.

A model figure is its axes: its ``run`` is :func:`sweep` over them, which
asks the analytical model (:mod:`repro.analysis.model`) at every point of
their cross product.  Two figures are no such cross product and stay plain
functions.  ``offered-load`` alone runs the message-level simulator.
Figure 12's failure timeline is a time series, and it is *not* simulated:
it is the model's healthy and degraded throughputs times a scripted
transient — one detection window for SpotLess, decaying dips standing in
for RCC's back-off, which the simulator's RCC does not implement.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.analysis.model import PerformanceModel, Scenario

PROTOCOLS = ("spotless", "rcc", "pbft", "hotstuff", "narwhal-hs")
CONCURRENT = ("spotless", "rcc")
FAILURE_COUNTS = (0, 1, 2, 3, 4, 6, 8, 10)
FAILURE_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
CLIENT_BATCHES = (12, 25, 50, 100, 200)
#: The operating point every model figure varies: 128 replicas, 100 txn/batch.
DEFAULT_POINT = Scenario(protocol="spotless", num_replicas=128, batch_size=100)


# ----------------------------------------------------------------------
# model figures: a figure is its axes, and `sweep` turns axes into rows
# ----------------------------------------------------------------------

#: Axis (the column it is reported under) -> how one value moves the point.
AXES: Dict[str, Callable[[Scenario, object], Scenario]] = {
    "protocol": lambda point, value: replace(point, protocol=value),
    "replicas": lambda point, value: replace(point, num_replicas=value),
    "instances": lambda point, value: replace(point, num_instances=value),
    "batch_size": lambda point, value: replace(point, batch_size=value),
    "transaction_bytes": lambda point, value: replace(point, transaction_bytes=value),
    "faulty": lambda point, value: replace(point, faulty_replicas=value),
    "attack": lambda point, value: replace(point, attack=value),
    "client_batches": lambda point, value: replace(point, offered_client_batches_per_primary=value),
    "cores": lambda point, value: replace(point, resources=point.resources.with_cores(value)),
    "bandwidth_mbit": lambda point, value: replace(point, resources=point.resources.with_bandwidth_mbit(value)),
    "regions": lambda point, value: replace(point, resources=point.resources.with_regions(value)),
    # A share of the point's own f, rounded to whole replicas.
    "ratio": lambda point, value: replace(point, faulty_replicas=int(round(value * point.f))),
}


def sweep(base: Scenario = DEFAULT_POINT, /, **axes: object) -> Callable[..., List[Dict[str, object]]]:
    """A model figure's ``run``: one predicted row per point of ``axes``.

    The cross product is walked outermost axis first from ``base``; a row is
    the model's prediction there plus one column per axis.  An axis's values
    may be a function of the point the outer axes reached (Figure 8 stops at
    each n's f; a one-value axis reports a derived column).  A keyword to
    ``run`` replaces that axis's values; an :data:`AXES` name the figure does
    not vary becomes its outermost axis.
    """

    def run(**overrides: object) -> List[Dict[str, object]]:
        unknown = sorted(set(overrides) - set(AXES))
        if unknown:
            raise TypeError(f"unknown axis {', '.join(unknown)}; choose from {', '.join(AXES)}")
        extra = {name: values for name, values in overrides.items() if name not in axes}
        points: List[Tuple[Scenario, Dict[str, object]]] = [(base, {})]
        for name, values in {**extra, **axes, **overrides}.items():
            points = [
                (AXES[name](point, value), {**columns, name: value})
                for point, columns in points
                for value in (values(point) if callable(values) else values)
            ]
        model = PerformanceModel()
        rows = []
        for point, columns in points:
            prediction = model.predict(point)
            rows.append(
                {
                    "protocol": point.protocol,
                    "throughput_txn_s": round(prediction.throughput, 1),
                    "latency_s": round(prediction.latency, 4),
                    "bottleneck": prediction.bottleneck,
                    **columns,
                }
            )
        return rows

    return run


def _failures_up_to_f(point: Scenario) -> List[int]:
    """Figure 8's failure counts: the usual ones plus f itself, none above f."""
    return [count for count in sorted({*FAILURE_COUNTS, point.f}) if count <= point.f]


def _ratio_as_count(point: Scenario) -> Tuple[int]:
    """The failure count a ``ratio`` axis set, reported as the ``faulty`` column."""
    return (point.faulty_replicas,)


_SINGLE_INSTANCE = replace(DEFAULT_POINT, num_instances=1)
#: Figures 9 and 10 plot the same rows: SpotLess and RCC at 0, 1 and f failures.
_under_failures = sweep(faulty=lambda point: (0, 1, point.f), client_batches=CLIENT_BATCHES, protocol=CONCURRENT)


# ----------------------------------------------------------------------
# Figure 12: real-time throughput after failures
# ----------------------------------------------------------------------

def failure_timeline(
    replicas: int = DEFAULT_POINT.num_replicas,
    faulty_replicas: int = 1,
    duration: float = 140.0,
    bucket: float = 5.0,
    failure_time: float = 10.0,
) -> List[Dict[str, object]]:
    """Throughput over time after injecting failures at ``failure_time``.

    SpotLess detects the faulty primaries once, re-tunes its constant-ε
    timeouts and settles at its degraded steady state; RCC repeatedly pays
    the exponential back-off penalty, which shows up as throughput dips that
    decay geometrically before recovering (the behaviour of Figure 12).
    """
    model = PerformanceModel()
    f = (replicas - 1) // 3
    rows: List[Dict[str, object]] = []
    for protocol in ("spotless", "rcc"):
        healthy = model.predict(Scenario(protocol=protocol, num_replicas=replicas)).throughput
        degraded = model.predict(
            Scenario(protocol=protocol, num_replicas=replicas, faulty_replicas=faulty_replicas)
        ).throughput
        time = 0.0
        backoff_cycle = 0
        while time < duration:
            if time < failure_time:
                throughput = healthy
            elif protocol == "spotless":
                # One detection window of reduced throughput, then stable.
                throughput = degraded * (0.6 if time < failure_time + bucket else 1.0)
            else:
                # RCC: exponentially backed-off instances cause repeated dips
                # whose depth decays until the system settles.
                cycles_since = int((time - failure_time) // bucket)
                dip_period = 2 + backoff_cycle
                if cycles_since % max(1, dip_period) == 0 and cycles_since < 16:
                    throughput = degraded * 0.35
                    backoff_cycle += 1
                else:
                    throughput = degraded * (0.85 if cycles_since < 16 else 1.0)
            rows.append(
                {
                    "protocol": protocol,
                    "time_s": time,
                    "faulty": faulty_replicas,
                    "throughput_txn_s": round(throughput, 1),
                }
            )
            time += bucket
    return rows


# ----------------------------------------------------------------------
# offered-load ramp: the open-loop simulator sweep behind Figures 7(c)/9/10
# ----------------------------------------------------------------------

def estimate_capacity(
    protocol: str,
    f: int = 1,
    batch_size: int = 4,
    seed: int = 1,
    probe_rate: float = 25000.0,
    probe_duration: float = 0.2,
    probe_ceiling: float = 500000.0,
) -> float:
    """Saturation throughput of a 3f+1 cluster, measured by probe runs.

    Drives the cluster open-loop at ``probe_rate`` and returns the measured
    confirmation rate.  A probe the cluster keeps up with proves nothing
    about saturation (RCC absorbs loads an order of magnitude past the other
    protocols at this scale), so while the cluster confirms more than 70% of
    the offered rate the probe escalates 4x, up to ``probe_ceiling``.
    Deterministic per seed.  ``scenarios.spec.PROTOCOL_CAPACITY`` records its
    results, and ``benchmarks/test_capacity_table.py`` holds the table to it.
    """
    from repro.bench.cluster import SimulatedCluster
    from repro.workload.arrival import LoadProfile

    rate = probe_rate
    while True:
        cluster = SimulatedCluster.for_protocol(
            protocol,
            num_replicas=3 * f + 1,
            batch_size=batch_size,
            seed=seed,
            arrival=LoadProfile.constant(rate=rate, duration=probe_duration),
        )
        cluster.start()
        cluster.run_additional(probe_duration)
        measured = max(cluster.clients[0].confirmed_transactions / probe_duration, 50.0)
        if measured < 0.7 * rate or rate >= probe_ceiling:
            return measured
        rate *= 4.0


def offered_load(
    protocols: Sequence[str] = PROTOCOLS,
    f: int = 1,
    batch_size: int = 4,
    duration: float = 1.0,
    p99_ceiling: float = 0.05,
    seed: int = 1,
) -> List[Dict[str, object]]:
    """Throughput/latency versus offered rate, measured in the simulator.

    Unlike the model's ``client_batches`` axis, this drives each
    protocol's message-level cluster with an open-loop
    :class:`~repro.core.client.OpenLoopClientPool` through the canonical
    overload schedule (ramp → hold → spike past saturation → ramp down →
    drain → recovery) and reports one row per phase: offered versus measured
    rate, windowed p50/p99 confirmation latency, end-of-phase queue depth
    and the p99-ceiling SLO verdict.

    The schedule is :func:`~repro.scenarios.spec.overload_spec`'s, the one
    ``repro scenario --overload`` runs, its rates anchored to that module's
    ``PROTOCOL_CAPACITY`` — so every sweep shows at least one operating point
    past saturation (SLO breach) and, after the ramp-down, the recovery from it.

    The SLO verdict of a phase is computed over the phase's last quarter:
    backlogged completions from an earlier overload land early in a window
    and would otherwise mask an already-recovered steady state.
    """
    from repro.bench.cluster import SimulatedCluster
    from repro.scenarios.spec import overload_spec
    from repro.sim.metrics import percentile

    rows: List[Dict[str, object]] = []
    for protocol in protocols:
        spec = overload_spec(
            protocol, f=f, seed=seed, duration=duration, p99_ceiling=p99_ceiling, batch_size=batch_size
        )
        cluster = SimulatedCluster.for_protocol(
            protocol,
            num_replicas=spec.resolved_replicas(),
            batch_size=batch_size,
            seed=seed,
            arrival=spec.load,
        )
        cluster.start()
        pool = cluster.clients[0]
        seen_samples = 0
        seen_offered = 0
        for index, (start, end, phase) in enumerate(spec.load.phase_windows()):
            tail_start = end - 0.25 * phase.duration
            cluster.run_additional(tail_start - cluster.simulator.now)
            tail_offset = len(pool.latency.samples)
            cluster.run_additional(end - cluster.simulator.now)
            samples = pool.latency.samples
            window = sorted(samples[seen_samples:])
            tail_p99 = percentile(sorted(samples[tail_offset:]), 0.99)
            seen_samples = len(samples)
            offered_in_phase = pool.offered_transactions - seen_offered
            seen_offered = pool.offered_transactions
            window_duration = end - start
            # A wedged queue breaches the latency SLO even with no
            # completions to show for it: the stalled requests are the tail.
            backlog_age = pool.oldest_pending_age()
            slo_ok = tail_p99 <= p99_ceiling and backlog_age <= p99_ceiling
            rows.append(
                {
                    "protocol": protocol,
                    "phase": f"{index}:{phase.shape}",
                    "offered_rate": phase.rate,
                    "measured_offered": round(offered_in_phase / window_duration, 1),
                    "throughput_txn_s": round(len(window) / window_duration, 1),
                    "p50_ms": round(percentile(window, 0.50) * 1000, 2),
                    "p99_ms": round(percentile(window, 0.99) * 1000, 2),
                    "queue_depth": pool.unconfirmed_count(),
                    "slo": "ok" if slo_ok else "breach",
                }
            )
    return rows


# ----------------------------------------------------------------------
# the figure registry: the one table behind `repro list`, `repro figure`,
# the ``figure`` dispatch task and the CLI's figure-specific flags
# ----------------------------------------------------------------------


class Experiment(NamedTuple):
    """One named, runnable grid of the evaluation."""

    run: Callable[..., List[Dict[str, object]]]
    #: Key-column order of the printed table.
    columns: Tuple[str, ...]
    #: What the rows reproduce, as printed above the table.
    paper: str
    #: CLI flag (argparse dest) -> the ``run`` keyword it sets.  A flag a
    #: figure does not list here is rejected for it, not silently dropped.
    cli_kwargs: Mapping[str, str] = {}


#: CLI figure name -> experiment (EXPERIMENTS.md maps each to its figure).
FIGURES: Dict[str, Experiment] = {
    "fig7a-scalability": Experiment(
        sweep(replicas=(4, 16, 32, 64, 96, 128), protocol=PROTOCOLS),
        ("replicas", "protocol", "throughput_txn_s", "latency_s", "bottleneck"),
        "Figure 7(a): throughput versus the number of replicas",
        {"replicas": "replicas"},
    ),
    "fig7b-batching": Experiment(
        sweep(batch_size=(10, 50, 100, 200, 400), protocol=PROTOCOLS),
        ("batch_size", "protocol", "throughput_txn_s", "latency_s"),
        "Figure 7(b): throughput versus batch size",
    ),
    "fig7c-throughput-latency": Experiment(
        sweep(faulty=(0,), client_batches=CLIENT_BATCHES, protocol=PROTOCOLS),
        ("client_batches", "protocol", "throughput_txn_s", "latency_s"),
        "Figure 7(c): latency versus throughput",
    ),
    "fig7d-transaction-size": Experiment(
        sweep(transaction_bytes=(48, 200, 400, 600, 800, 1600), protocol=PROTOCOLS),
        ("transaction_bytes", "protocol", "throughput_txn_s"),
        "Figure 7(d): throughput versus transaction size",
    ),
    "fig7e-failures": Experiment(
        sweep(faulty=FAILURE_COUNTS, protocol=PROTOCOLS),
        ("faulty", "protocol", "throughput_txn_s"),
        "Figure 7(e): throughput versus the number of failures",
    ),
    "fig7f-failure-ratio": Experiment(
        sweep(ratio=FAILURE_RATIOS, faulty=_ratio_as_count, protocol=PROTOCOLS),
        ("ratio", "faulty", "protocol", "throughput_txn_s"),
        "Figure 7(f): throughput versus the ratio of failures out of f",
    ),
    "fig8-spotless-failures": Experiment(
        sweep(replicas=(32, 64, 96, 128), faulty=_failures_up_to_f, protocol=("spotless",)),
        ("replicas", "faulty", "protocol", "throughput_txn_s"),
        "Figure 8: SpotLess under failures as a function of n",
    ),
    "fig9-latency-failures": Experiment(
        _under_failures,
        ("faulty", "client_batches", "protocol", "throughput_txn_s", "latency_s"),
        "Figure 9: throughput-latency of SpotLess and RCC under failures",
    ),
    "fig10-parallelism": Experiment(
        _under_failures,
        ("faulty", "client_batches", "protocol", "throughput_txn_s", "latency_s"),
        "Figure 10: throughput/latency versus client batches per primary",
    ),
    "fig11-byzantine": Experiment(
        sweep(
            faulty=FAILURE_COUNTS,
            protocol=CONCURRENT,
            # RCC is the reference under non-responsive replicas only.
            attack=lambda point: ("A1", "A2", "A3", "A4") if point.protocol == "spotless" else ("A1",),
        ),
        ("faulty", "protocol", "attack", "throughput_txn_s"),
        "Figure 11: SpotLess under attacks A1-A4",
    ),
    "fig12-timeline": Experiment(
        failure_timeline,
        ("protocol", "time_s", "throughput_txn_s"),
        "Figure 12: real-time throughput after failure injection",
        {"faulty": "faulty_replicas"},
    ),
    "fig13-instances": Experiment(
        sweep(instances=lambda point: (1, 8, 16, 32, 64, point.num_replicas), protocol=CONCURRENT),
        ("instances", "protocol", "throughput_txn_s"),
        "Figure 13: throughput versus the number of concurrent instances",
    ),
    "fig14a-cpu": Experiment(
        sweep(cores=(4, 8, 16, 32), protocol=PROTOCOLS),
        ("cores", "protocol", "throughput_txn_s"),
        "Figure 14(a): impact of computing power",
    ),
    "fig14b-bandwidth": Experiment(
        sweep(bandwidth_mbit=(500, 1000, 2000, 3000, 4000), protocol=PROTOCOLS),
        ("bandwidth_mbit", "protocol", "throughput_txn_s"),
        "Figure 14(b): impact of network bandwidth",
    ),
    "fig14cd-regions": Experiment(
        sweep(batch_size=(100, 400), regions=(1, 2, 3, 4), protocol=PROTOCOLS),
        ("batch_size", "regions", "protocol", "throughput_txn_s"),
        "Figure 14(c,d): impact of geo-distribution",
    ),
    "fig15-single-instance": Experiment(
        sweep(_SINGLE_INSTANCE, ratio=FAILURE_RATIOS, faulty=_ratio_as_count, protocol=("spotless", "hotstuff")),
        ("ratio", "protocol", "throughput_txn_s"),
        "Figure 15: single-instance SpotLess versus HotStuff under failures",
    ),
    "offered-load": Experiment(
        offered_load,
        (
            "protocol",
            "phase",
            "offered_rate",
            "measured_offered",
            "throughput_txn_s",
            "p50_ms",
            "p99_ms",
            "queue_depth",
            "slo",
        ),
        "Figures 7(c)/9/10 mechanism: open-loop offered-load sweep past saturation",
        {"protocols": "protocols"},
    ),
}


__all__ = [
    "AXES",
    "FIGURES",
    "Experiment",
    "PROTOCOLS",
    "estimate_capacity",
    "failure_timeline",
    "offered_load",
    "sweep",
]
