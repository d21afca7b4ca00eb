"""Deterministic delta-debugging of failing scenario specs.

A fuzz finding is a raw 1-3-window multi-fault script: before the protocol
bug behind it is even localizable, someone has to answer "which of these
windows matters, and how much of it?".  :func:`minimize_spec` automates
that: it re-runs candidate reductions of the spec — drop whole fault
windows, narrow ``[at, until)``, shrink attacker/victim sets, lower ``f``,
shorten ``duration``, raise ``checkpoint_interval`` — and keeps a
reduction only when the run still produces the **same failure signature**
(:mod:`repro.triage.signature`), i.e. the same failure mode, not merely
*some* failure.

The search is deterministic: candidate passes generate reductions in a
fixed order, every generated batch is evaluated in full, and the first
signature-preserving candidate (in generation order) is adopted.  Batches
fan out through the dispatch layer, so ``workers=2`` evaluates the same
batches as a serial run and — because :class:`~repro.dispatch.Dispatcher`
collects results in submission order — adopts the same candidates: serial
and parallel minimization of the same spec emit byte-identical output.
With a :class:`~repro.dispatch.ResultCache` attached, every candidate run
is content-addressed, so re-minimizing an unchanged spec under unchanged
code re-serves every run from cache and finishes near-instantly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.codec import JsonRecord
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.spec import ScenarioSpec, drop_event, replace_event, try_spec
from repro.triage.signature import FailureSignature, signature_of

#: Schema version stamped into serialized minimization results.
MINIMIZATION_FORMAT = 1

#: Smallest time change (seconds) a window/duration pass may propose.  The
#: fixpoint loop halves windows repeatedly, so the resolution bounds the
#: bisection depth; 5 ms is well below the oracle's 50 ms check interval.
TIME_RESOLUTION = 0.005

#: Default ceiling on candidate evaluations per minimization: a backstop
#: against pathological specs, far above what the 1-3-window fuzz findings
#: ever need (they minimize in a few dozen runs).
MAX_ATTEMPTS = 256

#: The checkpoint-interval pass stops doubling here: beyond one checkpoint
#: per run there is nothing left to simplify.
_MAX_CHECKPOINT_INTERVAL = 64

#: Type of the candidate evaluator: specs in, results in the same order.
Evaluator = Callable[[List[ScenarioSpec]], List[ScenarioResult]]


@dataclass(frozen=True)
class MinimizationResult(JsonRecord):
    """Outcome of one :func:`minimize_spec` call.

    ``signature`` is None when the original spec did not reproduce any
    violation (nothing to minimize — e.g. the bug was fixed since the
    archive was written, or the archive came from a forced test failure);
    ``minimized`` equals ``original`` in that case.
    """

    JSON_FORMAT = MINIMIZATION_FORMAT

    original: ScenarioSpec
    minimized: ScenarioSpec
    signature: Optional[FailureSignature]
    attempts: int
    reductions: int

    @property
    def reproduced(self) -> bool:
        """True when the original spec reproduced a failure signature."""
        return self.signature is not None


# ----------------------------------------------------------------------
# candidate passes — each returns speculative reductions of the current
# spec, possibly including None entries (filtered by the driver)
# ----------------------------------------------------------------------


def _drop_event_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Remove one whole fault window at a time."""
    return [drop_event(spec, index) for index in range(len(spec.events))]


def _lower_f_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Shrink the cluster: a bug that survives at f=1 is easier to trace."""
    if spec.f <= 1:
        return []
    # Dropping num_replicas back to the minimal 3(f-1) + 1; events whose
    # targets no longer exist invalidate the candidate (try_spec -> None).
    return [try_spec(spec, f=spec.f - 1, num_replicas=None)]


def _shrink_set_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Drop one attacker or one victim from any multi-replica event."""
    candidates: List[Optional[ScenarioSpec]] = []
    for index, event in enumerate(spec.events):
        if len(event.replicas) > 1:
            for dropped in event.replicas:
                candidates.append(
                    replace_event(
                        spec,
                        index,
                        replicas=tuple(r for r in event.replicas if r != dropped),
                    )
                )
        if len(event.victims) > 1:
            for dropped in event.victims:
                candidates.append(
                    replace_event(
                        spec,
                        index,
                        victims=tuple(v for v in event.victims if v != dropped),
                    )
                )
    return candidates


def _narrow_window_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Bisect ``[at, until)``: start later or heal earlier by half a window.

    The fixpoint loop re-applies the pass after every adoption, so each
    bound converges by repeated halving until the step would fall under
    ``resolution``.
    """
    candidates: List[Optional[ScenarioSpec]] = []
    for index, event in enumerate(spec.events):
        if event.until is None:
            continue
        half = (event.until - event.at) / 2
        if half < resolution:
            continue
        candidates.append(replace_event(spec, index, at=round(event.at + half, 6)))
        candidates.append(replace_event(spec, index, until=round(event.until - half, 6)))
    return candidates


def _shorten_duration_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Cut the run shorter; the heal-preservation filter keeps liveness judged."""
    candidates: List[Optional[ScenarioSpec]] = []
    for fraction in (0.5, 0.75):
        duration = round(spec.duration * fraction, 6)
        if spec.duration - duration >= resolution:
            candidates.append(try_spec(spec, duration=duration))
    return candidates


def _raise_checkpoint_candidates(spec: ScenarioSpec, resolution: float) -> List[Optional[ScenarioSpec]]:
    """Double K: fewer checkpoints in the trace, if the bug survives them.

    K = 0 (recovery disabled) is never touched — enabling recovery would
    change the subsystem under test, not simplify the scenario.
    """
    if spec.checkpoint_interval <= 0 or spec.checkpoint_interval >= _MAX_CHECKPOINT_INTERVAL:
        return []
    return [try_spec(spec, checkpoint_interval=spec.checkpoint_interval * 2)]


#: Pass order is part of the algorithm (and therefore of determinism):
#: structural reductions first (fewest windows, smallest cluster, smallest
#: fault sets), then the continuous ones (window/duration/K bisection).
_PASSES: Sequence[Callable[[ScenarioSpec, float], List[Optional[ScenarioSpec]]]] = (
    _drop_event_candidates,
    _lower_f_candidates,
    _shrink_set_candidates,
    _narrow_window_candidates,
    _shorten_duration_candidates,
    _raise_checkpoint_candidates,
)


def _viable(candidates: List[Optional[ScenarioSpec]], current: ScenarioSpec) -> List[ScenarioSpec]:
    """Filter a pass's output down to distinct, runnable reductions.

    Drops invalid candidates (None), no-ops, in-batch duplicates, and —
    when the current spec's fault script fully heals — candidates whose
    script no longer does: a spec whose liveness is never judged trivially
    loses its liveness violations, which the signature check would reject
    anyway at the cost of a wasted run.
    """
    keep_heals = current.heal_time() is not None
    viable: List[ScenarioSpec] = []
    seen = set()
    for candidate in candidates:
        if candidate is None or candidate == current or candidate in seen:
            continue
        if keep_heals and candidate.heal_time() is None:
            continue
        seen.add(candidate)
        viable.append(candidate)
    return viable


def _dispatch_evaluator(workers: Optional[int], cache: Optional[object]) -> Evaluator:
    """The default evaluator: scenario cells through the dispatch layer."""
    from repro.dispatch import Dispatcher

    dispatcher = Dispatcher(workers=workers, cache=cache)

    def evaluate(specs: List[ScenarioSpec]) -> List[ScenarioResult]:
        return dispatcher.run("scenario", specs)

    return evaluate


def minimized_name(name: str) -> str:
    """The conventional name of a minimized spec (idempotent)."""
    return name if name.endswith("-min") else f"{name}-min"


def minimize_spec(
    spec: ScenarioSpec,
    evaluate: Optional[Evaluator] = None,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    resolution: float = TIME_RESOLUTION,
    max_attempts: int = MAX_ATTEMPTS,
) -> MinimizationResult:
    """Shrink ``spec`` to a minimal script with the same failure signature.

    ``evaluate`` runs candidate specs and returns results in order; the
    default fans out through :class:`~repro.dispatch.Dispatcher` with the
    given ``workers``/``cache``.  ``max_attempts`` bounds the total number
    of candidate evaluations (the baseline run included).
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if evaluate is None:
        evaluate = _dispatch_evaluator(workers, cache)

    target = signature_of(evaluate([spec])[0])
    attempts = 1
    if target is None:
        return MinimizationResult(
            original=spec, minimized=spec, signature=None, attempts=attempts, reductions=0
        )

    current = spec
    reductions = 0
    # Per-call memo of candidate -> signature: after the last productive
    # adoption the fixpoint loop sweeps every pass once more over an
    # unchanged `current`, and without the memo it would re-evaluate (and
    # re-charge against max_attempts) candidates it already rejected.
    memo: Dict[ScenarioSpec, Optional[FailureSignature]] = {spec: target}

    def signature_for(batch: List[ScenarioSpec]) -> List[Optional[FailureSignature]]:
        nonlocal attempts
        fresh = [candidate for candidate in batch if candidate not in memo]
        fresh = fresh[: max_attempts - attempts]
        if fresh:
            attempts += len(fresh)
            for candidate, result in zip(fresh, evaluate(fresh)):
                memo[candidate] = signature_of(result)
        # Budget-trimmed candidates read as "unknown": never adoptable.
        return [memo.get(candidate) for candidate in batch]

    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for generate in _PASSES:
            # Re-apply each pass until it stops helping: dropping one
            # window often unlocks dropping another, and window bisection
            # converges by repetition.
            while attempts < max_attempts:
                batch = _viable(generate(current, resolution), current)
                if not batch:
                    break
                adopted = next(
                    (
                        candidate
                        for candidate, signature in zip(batch, signature_for(batch))
                        if signature is not None and signature == target
                    ),
                    None,
                )
                if adopted is None:
                    break
                current = adopted
                reductions += 1
                progress = True

    # Canonical event order: a minimized script should read top-to-bottom
    # as a timeline.  Injection is order-independent in principle (every
    # event schedules at its own `at`), but the reorder is still verified
    # like any other candidate rather than assumed.
    ordered = tuple(
        sorted(
            current.events,
            key=lambda event: (
                event.at,
                event.until if event.until is not None else float("inf"),
                event.kind,
            ),
        )
    )
    if ordered != current.events and attempts < max_attempts:
        candidate = try_spec(current, events=ordered)
        if candidate is not None and signature_for([candidate])[0] == target:
            current = candidate

    minimized = replace(current, name=minimized_name(spec.name))
    return MinimizationResult(
        original=spec,
        minimized=minimized,
        signature=target,
        attempts=attempts,
        reductions=reductions,
    )


__all__ = [
    "MAX_ATTEMPTS",
    "MINIMIZATION_FORMAT",
    "TIME_RESOLUTION",
    "MinimizationResult",
    "minimize_spec",
    "minimized_name",
]
