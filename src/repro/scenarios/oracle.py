"""Always-on consensus invariant oracle.

The oracle watches a :class:`~repro.bench.cluster.SimulatedCluster` while a
fault script plays out and records every violation of the guarantees the
paper's protocols must keep even under attack:

* **agreement** — no two replicas decide different proposals for the same
  consensus slot;
* **no-fork** — the executed transaction sequences of any two replicas are
  prefixes of one another (replicas may lag, but never diverge);
* **monotonic frontier** — a replica's executed prefix only ever grows;
* **inform durability** — every transaction a client confirmed (after f + 1
  matching Informs) was durably executed by at least a weak quorum of
  replicas;
* **windowed liveness** — once every fault in the script has healed, the
  cluster resumes executing new transactions before the run ends.
* **SLO** (optional, via :class:`SloSpec`) — windowed p50/p99 confirmation
  latency stays under its ceilings and the total unconfirmed queue under its
  depth bound.  Breaches are tracked as episodes (open → close), so
  overload and recovery-from-overload are first-class: ``enforce`` mode
  makes every episode a violation, ``expect-recovery`` mode only flags
  episodes still open at the end of the run (the system was allowed to
  saturate but had to drain back under its ceilings).

Checks run continuously: the oracle schedules itself on the cluster's
simulator every ``check_interval`` simulated seconds, so a transient
violation in the middle of an attack window is caught even if the end state
looks clean.  Violations are recorded, not raised, so one run reports every
broken invariant at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.metrics import percentile

#: SLO enforcement modes: every breach episode is a violation, or only
#: episodes that never recover by the end of the run.
SLO_MODES = ("enforce", "expect-recovery")


@dataclass(frozen=True)
class SloSpec:
    """Service-level objectives checked continuously by the oracle.

    Ceilings are in seconds (latency) and requests (queue depth); ``None``
    disables that check.  ``mode`` is one of :data:`SLO_MODES`.  With
    ``require_breach`` the spec additionally *demands* that at least one
    breach happens — an overload scenario that never saturates the system
    proves nothing, so the missing breach is itself a violation.
    """

    p50_ceiling: Optional[float] = None
    p99_ceiling: Optional[float] = None
    max_queue_depth: Optional[int] = None
    mode: str = "enforce"
    require_breach: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SLO_MODES:
            raise ValueError(f"unknown SLO mode {self.mode!r}; choose one of {SLO_MODES}")
        if self.p50_ceiling is None and self.p99_ceiling is None and self.max_queue_depth is None:
            raise ValueError("an SLO spec must set at least one ceiling")
        for name in ("p50_ceiling", "p99_ceiling"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable form (stable field order)."""
        return {
            "p50_ceiling": self.p50_ceiling,
            "p99_ceiling": self.p99_ceiling,
            "max_queue_depth": self.max_queue_depth,
            "mode": self.mode,
            "require_breach": self.require_breach,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SloSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (validates)."""
        return cls(
            p50_ceiling=data.get("p50_ceiling"),
            p99_ceiling=data.get("p99_ceiling"),
            max_queue_depth=data.get("max_queue_depth"),
            mode=data.get("mode", "enforce"),
            require_breach=data.get("require_breach", False),
        )


@dataclass
class SloBreach:
    """One contiguous episode during which an SLO metric exceeded its ceiling.

    ``ended_at`` is ``None`` while the episode is still open — i.e. the
    system never recovered before the run ended.
    """

    metric: str
    ceiling: float
    started_at: float
    ended_at: Optional[float] = None
    peak: float = 0.0

    @property
    def recovered(self) -> bool:
        """True once the metric dropped back under its ceiling."""
        return self.ended_at is not None

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "metric": self.metric,
            "ceiling": self.ceiling,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "peak": self.peak,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SloBreach":
        """Rebuild a breach from :meth:`to_json_dict` output."""
        return cls(
            metric=data["metric"],
            ceiling=data["ceiling"],
            started_at=data["started_at"],
            ended_at=data.get("ended_at"),
            peak=data.get("peak", 0.0),
        )


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a consensus invariant."""

    invariant: str
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant} @ {self.time:.3f}s] {self.detail}"

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable form — the one shape the result cache and the
        fuzz archives both store, so the two can never drift apart."""
        return {"invariant": self.invariant, "time": self.time, "detail": self.detail}

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "InvariantViolation":
        """Rebuild a violation from :meth:`to_json_dict` output."""
        return cls(invariant=data["invariant"], time=data["time"], detail=data["detail"])


def canonical_violation_kinds(violations: Iterable[InvariantViolation]) -> Tuple[str, ...]:
    """The sorted, de-duplicated invariant kinds of a violation list.

    This is the oracle's half of a failure *signature*
    (:mod:`repro.triage.signature`): timestamps and per-run details (slot
    numbers, digests, straggler phrasing) vary under minimization, but the
    set of broken invariants is what identifies a failure mode.
    """
    return tuple(sorted({violation.invariant for violation in violations}))


@dataclass(frozen=True)
class ProgressSample:
    """Execution progress observed at one oracle tick."""

    time: float
    executed_max: int
    confirmed_total: int
    executed_per_replica: Tuple[int, ...] = ()


class InvariantOracle:
    """Continuously checks safety and liveness invariants of a cluster run.

    ``strict_liveness`` additionally turns post-heal *stragglers* — replicas
    that individually make no execution progress after every fault healed —
    into violations.  The scenario harness runs with it on: the
    checkpoint/state-transfer subsystem (:mod:`repro.recovery`) catches every
    healed replica back up, so a straggler is a recovery bug, not an
    accepted limitation.  The constructor default stays off for callers that
    deliberately study the wedge (e.g. ``checkpoint_interval=0`` runs).
    """

    def __init__(
        self,
        cluster,
        check_interval: float = 0.05,
        strict_liveness: bool = False,
        slo: Optional[SloSpec] = None,
    ) -> None:
        self.cluster = cluster
        self.check_interval = check_interval
        self.strict_liveness = strict_liveness
        self.slo = slo
        self.violations: List[InvariantViolation] = []
        self._recorded: Set[Tuple[str, str]] = set()
        self.samples: List[ProgressSample] = []
        self.stragglers: Tuple[int, ...] = ()
        self.checks_run = 0
        self._frontiers: Dict[int, int] = {}
        self._end_time: Optional[float] = None
        # SLO breach episodes: closed ones accumulate in slo_breaches, at
        # most one open episode per metric lives in _open_breaches.
        self.slo_breaches: List[SloBreach] = []
        self._open_breaches: Dict[str, SloBreach] = {}
        self._latency_offsets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def arm(self, duration: float) -> None:
        """Schedule periodic checks over the next ``duration`` simulated seconds."""
        self._end_time = self.cluster.simulator.now + duration
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._end_time is None or self.cluster.simulator.now >= self._end_time:
            return
        delay = min(self.check_interval, self._end_time - self.cluster.simulator.now)
        self.cluster.simulator.schedule(delay, self._tick, label="oracle:tick")

    def _tick(self) -> None:
        self.check_now()
        self._schedule_next()

    # ------------------------------------------------------------------
    # continuous checks
    # ------------------------------------------------------------------

    def check_now(self) -> None:
        """Run the safety checks against the cluster's current state."""
        self.checks_run += 1
        self._check_agreement()
        # Each replica's executed sequence is built once per check: the fork
        # check compares the lists, the frontier check reads their lengths.
        executions = [
            (replica.node_id, replica.executed_transaction_digests())
            for replica in self.cluster.replicas
        ]
        self._check_no_fork(executions)
        self._check_monotonic_frontier(executions)
        if self.slo is not None:
            self._check_slo()
        self._sample_progress()

    def _record(self, invariant: str, detail: str) -> None:
        # A persistent violation (e.g. a fork) re-triggers on every tick;
        # record each distinct defect once, not once per check.
        if (invariant, detail) in self._recorded:
            return
        self._recorded.add((invariant, detail))
        self.violations.append(
            InvariantViolation(invariant=invariant, time=self.cluster.simulator.now, detail=detail)
        )

    def _check_agreement(self) -> None:
        """No two replicas decided different proposals for the same slot."""
        maps = [(replica.node_id, replica.committed_map()) for replica in self.cluster.replicas]
        reference: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
        for node_id, committed in maps:
            for slot, digest in committed.items():
                seen = reference.get(slot)
                if seen is None:
                    reference[slot] = (node_id, digest)
                elif seen[1] != digest:
                    self._record(
                        "agreement",
                        f"slot {slot}: replica {seen[0]} decided {seen[1].hex()[:12]} "
                        f"but replica {node_id} decided {digest.hex()[:12]}",
                    )

    def _check_no_fork(self, executions: List[Tuple[int, List[bytes]]]) -> None:
        """Executed transaction sequences are pairwise prefix-consistent."""
        if not executions:
            return
        # Prefix-consistency is transitive against the longest sequence, so
        # one pass against the deepest replica covers every pair.
        deepest_id, deepest = max(executions, key=lambda item: len(item[1]))
        for node_id, digests in executions:
            if node_id == deepest_id:
                continue
            shared = len(digests)
            if digests[:shared] != deepest[:shared]:
                first_bad = next(
                    i for i in range(shared) if digests[i] != deepest[i]
                )
                self._record(
                    "no-fork",
                    f"replicas {node_id} and {deepest_id} fork at executed "
                    f"position {first_bad}",
                )

    def _check_monotonic_frontier(self, executions: List[Tuple[int, List[bytes]]]) -> None:
        """A replica's executed prefix never shrinks between checks."""
        for node_id, digests in executions:
            frontier = len(digests)
            previous = self._frontiers.get(node_id, 0)
            if frontier < previous:
                self._record(
                    "monotonic-frontier",
                    f"replica {node_id} frontier went from {previous} to {frontier}",
                )
            self._frontiers[node_id] = frontier

    def _check_slo(self) -> None:
        """Track windowed latency/queue SLOs as breach episodes.

        The latency window is every confirmation observed since the previous
        tick.  A window with *no* confirmations is not automatically healthy:
        if requests are pending and the oldest has already waited longer than
        the p99 ceiling, the queue is wedged and the latency SLO is breached
        even though nothing completed to prove it.
        """
        now = self.cluster.simulator.now
        window: List[float] = []
        for client in self.cluster.clients:
            samples = client.latency.samples
            offset = self._latency_offsets.get(id(client), 0)
            if len(samples) > offset:
                window.extend(samples[offset:])
            self._latency_offsets[id(client)] = len(samples)
        window.sort()
        oldest_age = max(
            (client.oldest_pending_age() for client in self.cluster.clients), default=0.0
        )
        if self.slo.p50_ceiling is not None:
            if window:
                p50 = percentile(window, 0.50)
            else:
                p50 = oldest_age if oldest_age > self.slo.p50_ceiling else 0.0
            self._track_episode("p50", p50, self.slo.p50_ceiling, now)
        if self.slo.p99_ceiling is not None:
            p99 = percentile(window, 0.99)
            # A silent window with an over-ceiling backlog counts as a
            # breach: the stalled requests *are* the tail latency.
            p99 = max(p99, oldest_age if oldest_age > self.slo.p99_ceiling else 0.0)
            self._track_episode("p99", p99, self.slo.p99_ceiling, now)
        if self.slo.max_queue_depth is not None:
            depth = float(sum(client.unconfirmed_count() for client in self.cluster.clients))
            self._track_episode("queue-depth", depth, float(self.slo.max_queue_depth), now)

    def _track_episode(self, metric: str, value: float, ceiling: float, now: float) -> None:
        open_breach = self._open_breaches.get(metric)
        if value > ceiling:
            if open_breach is None:
                open_breach = SloBreach(metric=metric, ceiling=ceiling, started_at=now, peak=value)
                self._open_breaches[metric] = open_breach
                self.slo_breaches.append(open_breach)
                if self.slo.mode == "enforce":
                    self._record(
                        f"slo-{metric}",
                        f"{metric} reached {value:.4g} over ceiling {ceiling:.4g} "
                        f"starting at {now:.3f}s",
                    )
            elif value > open_breach.peak:
                open_breach.peak = value
        elif open_breach is not None:
            open_breach.ended_at = now
            del self._open_breaches[metric]

    def _finalize_slo(self) -> None:
        """End-of-run SLO verdicts (mode- and require_breach-sensitive)."""
        if self.slo is None:
            return
        for breach in self._open_breaches.values():
            # Never closed: the system did not recover before the run ended.
            if self.slo.mode == "expect-recovery":
                self._record(
                    "slo-recovery",
                    f"{breach.metric} breach that started at {breach.started_at:.3f}s "
                    f"(peak {breach.peak:.4g}, ceiling {breach.ceiling:.4g}) "
                    "never recovered before the end of the run",
                )
        if self.slo.require_breach and not self.slo_breaches:
            self._record(
                "slo-no-breach",
                "the scenario was expected to saturate the system but no SLO "
                "ceiling was ever breached",
            )

    def _sample_progress(self) -> None:
        per_replica = tuple(replica.executed_transactions for replica in self.cluster.replicas)
        confirmed = sum(client.confirmed_transactions for client in self.cluster.clients)
        self.samples.append(
            ProgressSample(
                time=self.cluster.simulator.now,
                executed_max=max(per_replica, default=0),
                confirmed_total=confirmed,
                executed_per_replica=per_replica,
            )
        )

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------

    def final_check(self, heal_time: Optional[float] = None) -> List[InvariantViolation]:
        """Run the end-of-run checks and return all recorded violations.

        ``heal_time`` is the simulated time after which the fault script is
        fully healed; pass None to skip the liveness check (some fault in
        the script persists to the end of the run).
        """
        self.check_now()
        self._check_inform_durability()
        self._finalize_slo()
        if heal_time is not None:
            self._check_windowed_liveness(heal_time)
        return self.violations

    def _check_inform_durability(self) -> None:
        """Every client-confirmed transaction is executed by a weak quorum.

        A client confirms after f + 1 matching Informs and replicas inform
        only after executing, so at least f + 1 replicas — hence at least
        one non-faulty one — must hold each confirmed transaction.
        """
        executed_by: Dict[bytes, int] = {}
        for replica in self.cluster.replicas:
            for digest in set(replica.executed_transaction_digests()):
                executed_by[digest] = executed_by.get(digest, 0) + 1
        weak_quorum = self.cluster.replicas[0].config.weak_quorum
        for client in self.cluster.clients:
            for digest in client.confirmed_digests:
                copies = executed_by.get(digest, 0)
                if copies < weak_quorum:
                    self._record(
                        "inform-durability",
                        f"client {client.client_id} confirmed {digest.hex()[:12]} "
                        f"but only {copies} replicas executed it "
                        f"(weak quorum is {weak_quorum})",
                    )

    def _check_windowed_liveness(self, heal_time: float) -> None:
        """Execution progresses again between fault heal and end of run.

        The cluster-level check (the deepest replica keeps executing) is
        always a violation when it fails.  Per-replica progress is also
        measured: replicas stuck at their heal-time depth are recorded as
        ``stragglers`` and, under ``strict_liveness``, violations too.
        """
        at_heal: Optional[ProgressSample] = None
        for sample in self.samples:
            if sample.time <= heal_time:
                at_heal = sample
            else:
                break
        heal_max = at_heal.executed_max if at_heal else 0
        final = self.samples[-1] if self.samples else None
        if final is None or final.executed_max <= heal_max:
            self._record(
                "liveness",
                f"no execution progress after faults healed at {heal_time:.3f}s "
                f"(stuck at {heal_max} executed transactions)",
            )
        if final is None or not final.executed_per_replica:
            return
        heal_depths = (
            at_heal.executed_per_replica
            if at_heal and at_heal.executed_per_replica
            else (0,) * len(final.executed_per_replica)
        )
        stragglers = tuple(
            replica.node_id
            for replica, before, after in zip(
                self.cluster.replicas, heal_depths, final.executed_per_replica
            )
            if after <= before
        )
        self.stragglers = stragglers
        if self.strict_liveness:
            for node_id in stragglers:
                self._record(
                    "liveness-straggler",
                    f"replica {node_id} made no execution progress after faults "
                    f"healed at {heal_time:.3f}s",
                )

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations


__all__ = [
    "InvariantOracle",
    "InvariantViolation",
    "ProgressSample",
    "SLO_MODES",
    "SloBreach",
    "SloSpec",
    "canonical_violation_kinds",
]
