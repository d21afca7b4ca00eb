"""Execute declarative chaos scenarios with the invariant oracle attached.

:class:`ScenarioRunner` is the bridge between the three layers the scenario
subsystem composes: it instantiates a protocol cluster from a
:class:`~repro.scenarios.spec.ScenarioSpec`, compiles the spec's fault
script onto a :class:`~repro.faults.injector.FaultInjector`, arms an
:class:`~repro.scenarios.oracle.InvariantOracle`, and runs the whole thing
deterministically from the spec's seed.  A list of specs runs as the cells
of ``repro.dispatch.Dispatcher().run("scenario", specs)``; ``format_matrix``
renders the one-line-per-scenario summary table the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.bench.cluster import SimulatedCluster
from repro.codec import JsonRecord
from repro.crypto.digest import digest_bytes
from repro.faults.injector import FaultInjector
from repro.scenarios.oracle import InvariantOracle, InvariantViolation, SloBreach
from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class ScenarioResult(JsonRecord):
    """Outcome of one scenario run.

    Everything the summary table and the digest depend on round-trips
    through the JSON form, so a result loaded from the dispatch cache
    renders the exact same row as the run that produced it.
    """

    spec: ScenarioSpec
    confirmed_transactions: int
    executed_transactions: int
    committed_per_replica: Tuple[int, ...]
    violations: Tuple[InvariantViolation, ...]
    checks_run: int
    # Replicas that made no execution progress after all faults healed.
    # With the checkpoint/state-transfer subsystem this column must stay
    # empty; under ScenarioSpec.strict_liveness (the default) a straggler is
    # a hard invariant violation.
    stragglers: Tuple[int, ...] = ()
    # Liveness-machinery counters summed over replicas (deadline extensions,
    # timeout fires, chain-sync retries/rotations).  Kept out of the summary
    # digest and the row: they make wedges in this bug family observable
    # without repinning goldens each time a counter is added.
    counters: Dict[str, int] = field(default_factory=dict)
    # SLO breach episodes observed by the oracle (empty without an SloSpec).
    # Like counters, excluded from the summary digest: episode timing is an
    # observation channel, not part of the pinned outcome.
    slo_breaches: Tuple[SloBreach, ...] = ()
    # Per-replica liveness-counter breakdown, in replica-id order.  Same
    # digest-excluded observation channel as ``counters``.
    counters_per_replica: Tuple[Dict[str, int], ...] = ()
    # Flight-recorder dump (repro.obs.Tracer.dump()) captured when the run
    # was traced and the oracle recorded a violation.  Digest-excluded.
    trace_dump: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def summary_digest(self) -> str:
        """Deterministic digest of the run's observable outcome.

        Covers the confirmed count and every replica's executed depth, so
        any behavioural drift under a fixed seed changes the digest.  The
        scenario tests pin these values per (protocol, fault, seed).
        """
        return digest_bytes(
            (
                self.spec.protocol,
                self.spec.fault_label(),
                self.spec.seed,
                self.confirmed_transactions,
                tuple(self.committed_per_replica),
            )
        ).hex()[:12]

    def row(self) -> Dict[str, object]:
        """Summary-table row for this result."""
        return {
            "scenario": self.spec.name,
            "protocol": self.spec.protocol,
            "fault": self.spec.fault_label(),
            "f": self.spec.f,
            "seed": self.spec.seed,
            "confirmed": self.confirmed_transactions,
            "executed": self.executed_transactions,
            "violations": len(self.violations),
            "stragglers": ",".join(map(str, self.stragglers)) or "-",
            "digest": self.summary_digest(),
        }


class ScenarioRunner:
    """Runs one :class:`ScenarioSpec` against a freshly built cluster.

    ``flight`` attaches a bounded flight-recorder
    :class:`~repro.obs.tracer.Tracer` whose trailing window is dumped into
    :attr:`ScenarioResult.trace_dump` whenever the oracle records a
    violation.  Passing an explicit ``tracer`` (e.g. an unbounded one for
    ``repro trace``) overrides ``flight``; the caller then owns the dump.
    ``telemetry_interval`` additionally samples per-replica commit-frontier
    / view / instance-skew / queue-depth time series into the tracer and the
    cluster's metrics registry.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        flight: bool = False,
        tracer: Optional[object] = None,
        telemetry_interval: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.cluster = SimulatedCluster.for_protocol(
            spec.protocol,
            num_replicas=spec.resolved_replicas(),
            batch_size=spec.batch_size,
            clients=spec.clients,
            outstanding_per_client=spec.outstanding,
            seed=spec.seed,
            request_timeout=spec.request_timeout,
            view_change_timeout=spec.view_change_timeout,
            checkpoint_interval=spec.checkpoint_interval,
            arrival=spec.load,
        )
        # The inform-durability invariant audits every confirmed digest, so
        # scenario clients must record them (off by default for benchmarks).
        for client in self.cluster.clients:
            client.record_confirmed_digests = True
        self.tracer = tracer
        if self.tracer is None and flight:
            from repro.obs.tracer import Tracer

            self.tracer = Tracer(self.cluster.simulator)
        if self.tracer is not None:
            self.cluster.attach_tracer(self.tracer, telemetry_interval=telemetry_interval)
        self.injector = FaultInjector(self.cluster)
        self.oracle = InvariantOracle(
            self.cluster,
            check_interval=spec.check_interval,
            strict_liveness=spec.strict_liveness,
            slo=spec.slo,
        )

    # ------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Play the fault script to the end and return the checked outcome."""
        for event in self.spec.events:
            self.injector.schedule(event)
        self.oracle.arm(self.spec.duration)
        result = self.cluster.run(duration=self.spec.duration)
        self.oracle.final_check(heal_time=self.spec.heal_time())
        committed = tuple(replica.executed_transactions for replica in self.cluster.replicas)
        counters: Dict[str, int] = {}
        per_replica: List[Dict[str, int]] = []
        for replica in self.cluster.replicas:
            replica_counters = dict(replica.liveness_counters())
            per_replica.append(replica_counters)
            for name, value in replica_counters.items():
                counters[name] = counters.get(name, 0) + value
        trace_dump: Optional[Dict[str, Any]] = None
        if self.tracer is not None and self.oracle.violations:
            # Flight-recorder semantics: a violation freezes the trailing
            # ring-buffer window alongside the result so the failing run's
            # last moments survive even when nobody asked for a full trace.
            trace_dump = self.tracer.dump()
        return ScenarioResult(
            spec=self.spec,
            confirmed_transactions=result.confirmed_transactions,
            executed_transactions=result.executed_transactions,
            committed_per_replica=committed,
            violations=tuple(self.oracle.violations),
            checks_run=self.oracle.checks_run,
            stragglers=self.oracle.stragglers,
            counters=counters,
            slo_breaches=tuple(self.oracle.slo_breaches),
            counters_per_replica=tuple(per_replica),
            trace_dump=trace_dump,
        )


def run_scenario(spec: ScenarioSpec, flight: bool = False) -> ScenarioResult:
    """Convenience wrapper: build a runner for ``spec`` and run it."""
    return ScenarioRunner(spec, flight=flight).run()


MATRIX_COLUMNS = [
    "scenario",
    "protocol",
    "fault",
    "f",
    "seed",
    "confirmed",
    "executed",
    "violations",
    "stragglers",
    "digest",
]


def format_matrix(results: Sequence[ScenarioResult]) -> str:
    """The aligned summary table for a list of scenario results."""
    return format_table([result.row() for result in results], MATRIX_COLUMNS)


__all__ = [
    "MATRIX_COLUMNS",
    "ScenarioResult",
    "ScenarioRunner",
    "format_matrix",
    "run_scenario",
]
