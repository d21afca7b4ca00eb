"""Declarative chaos scenarios.

A :class:`ScenarioSpec` describes one adversarial run end to end: which
protocol to deploy, at what scale, which workload to drive, and a timed
fault script of :class:`FaultEvent` entries — crashes, partitions, the
paper's A1-A4 Byzantine attacks (Section 6.3, Figure 11), and latency
degradation windows.  Specs are plain frozen data: the same spec and seed
always produce the same simulated run, which is what makes the golden
digests of the scenario tests meaningful.

The predefined matrix mirrors the paper's adversarial evaluation: every
implemented protocol crossed with every fault family at f ∈ {1, 2}.

A spec may also carry an open-loop :class:`~repro.workload.arrival.LoadProfile`
(the workload becomes a single aggregated client pool instead of closed-loop
actors) and an :class:`~repro.scenarios.oracle.SloSpec` (the oracle then
checks latency/queue ceilings continuously) — together these make overload
and recovery-from-overload a scenario family like any fault.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.codec import JsonRecord
from repro.faults.injector import ATTACK_KINDS, FAULT_KINDS, FaultEvent
from repro.scenarios.oracle import SloSpec
from repro.workload.arrival import LoadProfile, overload_profile

#: Schema version stamped into serialized specs; bump on incompatible change.
SPEC_FORMAT = 1

#: Protocols the runner can deploy (the order fixes matrix ordering).
PROTOCOLS = ("spotless", "pbft", "rcc", "hotstuff", "narwhal-hs")


@dataclass(frozen=True)
class ScenarioSpec(JsonRecord):
    """A full adversarial run: cluster shape, workload, and fault script.

    Its JSON form (:class:`~repro.codec.JsonRecord`) is what the dispatch
    layer keys its result cache on, what failing fuzz cells are archived as
    and what ``--replay`` rebuilds byte-for-byte.
    """

    JSON_FORMAT = SPEC_FORMAT

    name: str
    protocol: str
    f: int = 1
    num_replicas: Optional[int] = None
    batch_size: int = 4
    clients: int = 2
    outstanding: int = 2
    duration: float = 0.3
    seed: int = 1
    events: Tuple[FaultEvent, ...] = ()
    check_interval: float = 0.05
    # Aggressive failure-detection timers for the baselines: chaos runs are
    # short, so recovery must fit in a fraction of the run (SpotLess's own
    # adaptive timers are already this small).
    request_timeout: float = 0.06
    view_change_timeout: float = 0.08
    # Post-heal stragglers (replicas that individually stop progressing) are
    # hard invariant violations: the checkpoint/state-transfer subsystem is
    # expected to catch every healed replica back up.  Set to False only when
    # deliberately studying the wedge (e.g. with checkpoint_interval=0).
    strict_liveness: bool = True
    # Checkpoint interval K of the recovery subsystem; chaos runs are short,
    # so checkpoints fire more often than the production default of 16.
    # 0 disables checkpointing and state transfer entirely.
    checkpoint_interval: int = 8
    # Optional open-loop workload: when set, the run replaces the closed-loop
    # client actors with one OpenLoopClientPool driving this schedule (the
    # `clients`/`outstanding` knobs are then ignored).
    load: Optional[LoadProfile] = None
    # Optional SLO invariants checked continuously by the oracle.
    slo: Optional[SloSpec] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose one of {PROTOCOLS}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative (0 disables)")
        n = self.resolved_replicas()
        # Replica ids must name actual replicas — an out-of-range id would
        # silently fault a client node (ids n..n+clients-1) or nothing at
        # all, and the run would report a clean pass for an attack that was
        # never injected.  Partition groups may include client node ids.
        nodes = range(n + self.client_nodes())
        for event in self.events:
            if event.at >= self.duration:
                raise ValueError(f"event {event.label()} starts after the run ends")
            # Targeted kinds without targets would inject nothing and report
            # a clean pass for a fault that was never exercised.
            if event.kind in (*ATTACK_KINDS, "crash") and not event.replicas:
                raise ValueError(f"event {event.label()} names no target replicas")
            if event.kind in ("A2", "A3") and not event.victims:
                raise ValueError(f"event {event.label()} names no victims")
            if event.kind == "partition" and not event.groups:
                raise ValueError(f"event {event.label()} names no partition groups")
            for replica in (*event.replicas, *event.victims):
                if replica not in range(n):
                    raise ValueError(
                        f"event {event.label()} targets replica {replica}, but the "
                        f"cluster has replicas 0..{n - 1}"
                    )
            for group in event.groups:
                for node in group:
                    if node not in nodes:
                        raise ValueError(
                            f"event {event.label()} partitions node {node}, but the "
                            f"cluster has nodes 0..{n + self.client_nodes() - 1}"
                        )

    def resolved_replicas(self) -> int:
        """Cluster size: explicit ``num_replicas`` or the minimal 3f + 1."""
        return self.num_replicas if self.num_replicas is not None else 3 * self.f + 1

    def client_nodes(self) -> int:
        """Number of client actors the run deploys.

        An open-loop load profile aggregates the whole client population
        into a single pool actor at node id ``n``; the closed-loop default
        deploys ``clients`` actors at ids ``n..n+clients-1``.
        """
        return 1 if self.load is not None else self.clients

    def heal_time(self) -> Optional[float]:
        """When the last fault heals, or None if any fault persists.

        The liveness invariant (progress resumes after faults heal) is only
        checked when every fault in the script heals before the run ends; a
        heal scheduled at or past ``duration`` never takes effect inside the
        run, so such a fault counts as persistent.
        """
        if not self.events:
            return 0.0
        if any(event.until is None or event.until >= self.duration for event in self.events):
            return None
        return max(event.until for event in self.events)

    def fault_label(self) -> str:
        """Label summarising the fault script (used in the summary table)."""
        if not self.events:
            return "overload" if self.load is not None else "none"
        return "+".join(event.kind for event in self.events)


def try_spec(spec: ScenarioSpec, **changes: Any) -> Optional[ScenarioSpec]:
    """``dataclasses.replace`` that validates: None instead of a ValueError.

    The triage minimizer proposes many speculative reductions (lower ``f``,
    shorter ``duration``, ...); most of the invalid ones are predictable but
    some interact (an event that fits a 0.4 s run starts after a 0.1 s one
    ends), so the single choke point is: build the candidate through the
    constructor and treat a validation failure as "no such candidate".
    """
    try:
        return replace(spec, **changes)
    except ValueError:
        return None


def drop_event(spec: ScenarioSpec, index: int) -> Optional[ScenarioSpec]:
    """``spec`` without its ``index``-th fault event (None when invalid)."""
    events = tuple(event for i, event in enumerate(spec.events) if i != index)
    return try_spec(spec, events=events)


def replace_event(spec: ScenarioSpec, index: int, **changes: Any) -> Optional[ScenarioSpec]:
    """``spec`` with its ``index``-th event mutated (None when invalid).

    Event validation runs too (a narrowed window must still heal after it
    starts), so a bad mutation reads as "no candidate", never an exception.
    """
    try:
        mutated = replace(spec.events[index], **changes)
    except ValueError:
        return None
    events = tuple(
        mutated if i == index else event for i, event in enumerate(spec.events)
    )
    return try_spec(spec, events=events)


def single_fault_spec(
    protocol: str,
    fault: str,
    f: int = 1,
    duration: float = 0.3,
    seed: int = 1,
    batch_size: int = 4,
    clients: int = 2,
    outstanding: int = 2,
) -> ScenarioSpec:
    """The canonical one-fault scenario used by the predefined matrix.

    The fault strikes at 25% of the run and heals at 50%, leaving half the
    run as a post-heal window for the liveness check.  Attackers are the
    ``f`` highest-numbered replicas and the A2/A3 victim group the ``f``
    lowest-numbered ones, so attackers and victims never overlap.
    """
    n = 3 * f + 1
    attackers = tuple(range(n - f, n))
    victims = tuple(range(f))
    at = round(0.25 * duration, 6)
    until = round(0.5 * duration, 6)
    if fault in ATTACK_KINDS:
        event = FaultEvent(kind=fault, at=at, until=until, replicas=attackers, victims=victims)
    elif fault == "crash":
        event = FaultEvent(kind="crash", at=at, until=until, replicas=attackers)
    elif fault == "partition":
        # Clients (node ids n, n+1, ...) stay connected to the majority side:
        # the scenario isolates replicas, not the client population.
        majority = tuple(range(n - f)) + tuple(range(n, n + clients))
        event = FaultEvent(kind="partition", at=at, until=until, groups=(majority, attackers))
    elif fault == "latency":
        event = FaultEvent(kind="latency", at=at, until=until, factor=4.0)
    else:
        raise ValueError(f"unknown fault {fault!r}; choose one of {FAULT_KINDS}")
    return ScenarioSpec(
        name=f"{protocol}-{fault}-f{f}-s{seed}",
        protocol=protocol,
        f=f,
        duration=duration,
        seed=seed,
        batch_size=batch_size,
        clients=clients,
        outstanding=outstanding,
        events=(event,),
    )


#: Approximate saturation throughput (txn/s) of a 3f+1 cluster at f=1 with
#: batch size 4, measured with ``repro.bench.experiments.estimate_capacity``
#: (``benchmarks/test_capacity_table.py`` fails when an entry is 15 % off it).
#: The protocols sit orders of magnitude apart, so one fixed spike rate
#: cannot both saturate RCC and let HotStuff recover — the overload specs
#: anchor their rates to this table (base = 0.4x, spike = 2.0x capacity).
PROTOCOL_CAPACITY: Dict[str, float] = {
    "spotless": 7900.0,
    "pbft": 21000.0,
    "rcc": 84000.0,
    "hotstuff": 690.0,
    "narwhal-hs": 690.0,
}


def overload_spec(
    protocol: str,
    f: int = 1,
    seed: int = 1,
    base_rate: Optional[float] = None,
    spike_rate: Optional[float] = None,
    duration: float = 1.0,
    p99_ceiling: float = 0.05,
    max_queue_depth: int = 400,
    batch_size: int = 4,
) -> ScenarioSpec:
    """The canonical overload-and-recover scenario.

    Open-loop load ramps to ``base_rate``, holds, spikes to ``spike_rate``
    (chosen far past the saturation point of a 3f+1 cluster), ramps back
    down and holds at the base rate so the backlog can drain.  The SLO spec
    runs in ``expect-recovery`` mode with ``require_breach``: the run fails
    both if the spike does *not* saturate the system and if the system never
    recovers after the spike ends.

    Rates default to the :data:`PROTOCOL_CAPACITY` anchor for ``protocol``
    (base at 40 % of capacity, spike at 2x capacity) so every protocol's
    spec actually crosses its own saturation point.
    """
    capacity = PROTOCOL_CAPACITY[protocol]
    if base_rate is None:
        base_rate = 0.4 * capacity
    if spike_rate is None:
        spike_rate = 2.0 * capacity
    profile = overload_profile(
        base_rate=base_rate,
        spike_rate=spike_rate,
        ramp=round(0.10 * duration, 6),
        hold=round(0.10 * duration, 6),
        spike=round(0.10 * duration, 6),
        drain=round(0.30 * duration, 6),
        recovery=round(0.30 * duration, 6),
    )
    return ScenarioSpec(
        name=f"{protocol}-overload-f{f}-s{seed}",
        protocol=protocol,
        f=f,
        duration=duration,
        seed=seed,
        batch_size=batch_size,
        load=profile,
        slo=SloSpec(
            p99_ceiling=p99_ceiling,
            max_queue_depth=max_queue_depth,
            mode="expect-recovery",
            require_breach=True,
        ),
    )


def scenario_matrix(
    protocols: Sequence[str] = PROTOCOLS,
    faults: Sequence[str] = ("A1", "A2", "A3", "A4", "crash", "partition"),
    f_values: Sequence[int] = (1, 2),
    duration: float = 0.4,
    seeds: Sequence[int] = (1,),
) -> List[ScenarioSpec]:
    """The full scenario matrix: protocols x faults x f values x seeds."""
    specs: List[ScenarioSpec] = []
    for protocol in protocols:
        for fault in faults:
            for f in f_values:
                for seed in seeds:
                    specs.append(
                        single_fault_spec(protocol, fault, f=f, duration=duration, seed=seed)
                    )
    return specs


def smoke_matrix(seed: int = 1, duration: float = 0.4) -> List[ScenarioSpec]:
    """The reduced CI grid: every protocol x every fault at f = 1, one seed.

    The default duration matches the CLI's, so digests from a direct call
    compare against the goldens in ``tests/test_scenarios.py`` and CI runs.
    """
    return scenario_matrix(f_values=(1,), duration=duration, seeds=(seed,))


__all__ = [
    "ATTACK_KINDS",
    "FAULT_KINDS",
    "PROTOCOLS",
    "SPEC_FORMAT",
    "FaultEvent",
    "ScenarioSpec",
    "drop_event",
    "PROTOCOL_CAPACITY",
    "overload_spec",
    "replace_event",
    "scenario_matrix",
    "single_fault_spec",
    "smoke_matrix",
    "try_spec",
]
