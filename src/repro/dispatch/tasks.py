"""The registry of dispatchable task kinds.

A :class:`DispatchTask` packages everything the dispatcher and the result
cache need to handle one kind of work item:

* ``run`` — execute one payload and return its result (this is what worker
  processes call, so it must be resolvable by name — never a closure);
* ``payload_json`` — the canonical JSON form of a payload, used as the
  content-address of the cell in the :class:`~repro.dispatch.cache.ResultCache`;
* ``encode``/``decode`` — convert a result to/from the JSON value stored in
  the cache, such that a decoded result is indistinguishable from a fresh one;
* ``describe``/``summarize`` (optional) — observability hooks for the
  campaign ledger: a short human-readable cell label for a payload, and a
  small JSON outcome summary for a result (carried on ``cell-done`` records
  and reduced by the :class:`~repro.dispatch.campaign.CampaignManifest`).
  Neither ever feeds back into results or cache keys.

Four task kinds are registered: ``scenario`` (one
:class:`~repro.scenarios.spec.ScenarioSpec` through the chaos runner with
the invariant oracle armed), ``figure`` (one row of
:data:`repro.bench.experiments.FIGURES`), ``ablation`` (one row of
:data:`repro.bench.ablations.ABLATIONS`) and ``triage-minimize`` (one failing spec
through the delta-debugging minimizer of :mod:`repro.triage.minimize`).
Scenario cells are the unit of the matrix and fuzz fan-outs;
figure/ablation cells let a whole evaluation sweep run as one cached
parallel job; triage cells let ``repro fuzz`` minimize every failing cell
of a campaign in parallel, with whole minimizations content-addressed so
an unchanged finding re-serves from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class DispatchTask:
    """One dispatchable kind of work item."""

    name: str
    run: Callable[[Any], Any]
    payload_json: Callable[[Any], Dict[str, Any]]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    # Optional observability hooks (see module docstring); a task without
    # them still dispatches — cells just get positional labels and bare
    # ``cell-done`` records in the campaign ledger.
    describe: Optional[Callable[[Any], str]] = None
    summarize: Optional[Callable[[Any], Dict[str, Any]]] = None


_TASKS: Dict[str, DispatchTask] = {}


def register_task(task: DispatchTask) -> DispatchTask:
    """Register ``task`` under its name (last registration wins)."""
    _TASKS[task.name] = task
    return task


def get_task(name: str) -> DispatchTask:
    """Look up a registered task kind."""
    try:
        return _TASKS[name]
    except KeyError:
        known = ", ".join(sorted(_TASKS))
        raise KeyError(f"unknown dispatch task {name!r}; registered: {known}") from None


# ----------------------------------------------------------------------
# scenario cells
# ----------------------------------------------------------------------


def _spec_and_flight(payload):
    # A bare spec is the historical payload; ``{"spec": spec, "flight": True}``
    # additionally attaches the flight recorder so violating cells carry a
    # trace dump back from the worker.
    if isinstance(payload, dict):
        return payload["spec"], bool(payload.get("flight"))
    return payload, False


def _run_scenario_cell(payload) -> Any:
    # Imported lazily: the scenarios package must not be a hard import cost
    # for callers that only dispatch bench cells.
    from repro.scenarios.runner import run_scenario

    spec, flight = _spec_and_flight(payload)
    return run_scenario(spec, flight=flight)


def _scenario_payload_json(payload) -> Dict[str, Any]:
    # Untraced cells keep the bare-spec content address, so enabling the
    # flight recorder elsewhere never invalidates their cached results.
    spec, flight = _spec_and_flight(payload)
    return {"spec": spec.to_json_dict(), "flight": True} if flight else spec.to_json_dict()


def _scenario_encode(result) -> Any:
    return result.to_json_dict()


def _scenario_decode(value) -> Any:
    from repro.scenarios.runner import ScenarioResult

    return ScenarioResult.from_json_dict(value)


def _scenario_describe(payload) -> str:
    return _spec_and_flight(payload)[0].name


def _scenario_summarize(result) -> Dict[str, Any]:
    from repro.triage.signature import signature_summary

    return signature_summary(result)


register_task(
    DispatchTask(
        name="scenario",
        run=_run_scenario_cell,
        payload_json=_scenario_payload_json,
        encode=_scenario_encode,
        decode=_scenario_decode,
        describe=_scenario_describe,
        summarize=_scenario_summarize,
    )
)


# ----------------------------------------------------------------------
# triage cells: payload is {"spec": <spec json>, "cache": bool}
# ----------------------------------------------------------------------


def _run_triage_cell(payload: Dict[str, Any]) -> Any:
    # One whole minimization per cell.  Candidate evaluation inside the
    # worker stays serial (nesting pools in pool workers is not supported);
    # parallelism comes from minimizing several findings side by side.
    from repro.dispatch.cache import ResultCache
    from repro.scenarios.spec import ScenarioSpec
    from repro.triage.minimize import minimize_spec

    spec = ScenarioSpec.from_json_dict(payload["spec"])
    cache = ResultCache() if payload.get("cache", True) else None
    return minimize_spec(spec, cache=cache)


def _triage_payload_json(payload: Dict[str, Any]) -> Dict[str, Any]:
    # The cache flag steers execution, not the outcome (candidate-level
    # caching never changes results); only the spec addresses the cell.
    return {"spec": payload["spec"]}


def _triage_encode(result) -> Any:
    return result.to_json_dict()


def _triage_decode(value) -> Any:
    from repro.triage.minimize import MinimizationResult

    return MinimizationResult.from_json_dict(value)


def _triage_describe(payload: Dict[str, Any]) -> str:
    return f"minimize:{payload['spec'].get('name', '?')}"


def _triage_summarize(result) -> Dict[str, Any]:
    summary: Dict[str, Any] = {
        "reproduced": result.reproduced,
        "attempts": result.attempts,
        "reductions": result.reductions,
        "minimized": result.minimized.name,
    }
    if result.signature is not None:
        summary["signature"] = result.signature.to_json_dict()
        summary["signature_key"] = result.signature.key()
        summary["signature_label"] = result.signature.label()
    return summary


register_task(
    DispatchTask(
        name="triage-minimize",
        run=_run_triage_cell,
        payload_json=_triage_payload_json,
        encode=_triage_encode,
        decode=_triage_decode,
        describe=_triage_describe,
        summarize=_triage_summarize,
    )
)


# ----------------------------------------------------------------------
# figure and ablation cells: payloads are {"name": ..., "kwargs": {...}},
# naming one row of the family's registry in repro.bench
# ----------------------------------------------------------------------


def _run_figure_cell(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    from repro.bench.experiments import FIGURES

    return FIGURES[payload["name"]].run(**(payload.get("kwargs") or {}))


def _run_ablation_cell(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    from repro.bench.ablations import ABLATIONS

    return ABLATIONS[payload["name"]].run(**(payload.get("kwargs") or {}))


def _identity(value: Any) -> Any:
    return value


def _named_payload_describe(payload: Dict[str, Any]) -> str:
    return str(payload.get("name", "?"))


def _rows_summarize(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"rows": len(rows)}


for _name, _run in (("figure", _run_figure_cell), ("ablation", _run_ablation_cell)):
    register_task(
        DispatchTask(
            name=_name,
            run=_run,
            payload_json=_identity,
            encode=_identity,
            decode=_identity,
            describe=_named_payload_describe,
            summarize=_rows_summarize,
        )
    )


__all__ = ["DispatchTask", "get_task", "register_task"]
