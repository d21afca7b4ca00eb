"""Exporters turning a :class:`~repro.obs.tracer.Tracer` recording into
artifacts a human can open.

* :func:`to_chrome_trace` — the Chrome trace-event / Perfetto JSON format
  (open ``trace.json`` in https://ui.perfetto.dev or chrome://tracing):
  one process, one thread track per replica/client plus one per span
  category (so episode slices never overlap on a row), flow arrows for
  message send→deliver edges, and counter tracks for the sampled telemetry.
* :func:`validate_chrome_trace` — a structural schema check used by the CI
  trace-smoke step and run on every export before it is written.
* :func:`write_timeseries_csv` / :func:`timeseries_json` — the per-tick
  telemetry (:class:`repro.sim.metrics.TimeSeries`) as CSV / JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.sim.metrics import TimeSeries

#: Phases of the trace-event format this exporter emits.
_EMITTED_PHASES = ("X", "i", "C", "s", "f", "M")

#: Simulated seconds → trace microseconds.
_US = 1_000_000.0

#: pid stamped on every event (one simulated cluster == one process).
_PID = 1


def _ts(time: float) -> int:
    return int(round(time * _US))


def to_chrome_trace(dump: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a :meth:`Tracer.dump` recording to a Chrome trace document.

    Spans render as complete ("X") slices on a ``<track> · <category>`` row,
    instants as "i" events on the track's main row, counters as "C" series,
    and flow records as matched "s"/"f" arrow pairs anchored to 1 µs "X"
    slices (viewers bind flow arrows to enclosing slices).  Spans with
    ``end: null`` (open when dumped — a wedged episode) are clamped to the
    recording's end time and tagged ``open: true``.
    """
    records = dump.get("records", [])
    end_time = dump.get("end_time") or 0.0

    # Pass 1: discover rows and matched flow pairs.
    rows: Set[str] = set()
    flow_halves: Dict[int, int] = {}
    for record in records:
        kind = record["kind"]
        if kind == "span":
            rows.add(f"{record['track']} · {record['cat']}")
        elif kind == "instant":
            rows.add(record["track"])
        elif kind in ("flow_s", "flow_f"):
            rows.add(record["track"])
            flow_halves[record["id"]] = flow_halves.get(record["id"], 0) + 1
    # The ring buffer can evict one half of a flow pair; unmatched halves
    # would render as dangling arrows, so they are dropped.
    matched_flows = {flow_id for flow_id, halves in flow_halves.items() if halves == 2}

    tid_of = {name: tid for tid, name in enumerate(sorted(rows), start=1)}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro-sim"},
        }
    ]
    for name, tid in sorted(tid_of.items(), key=lambda item: item[1]):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid, "args": {"name": name}}
        )

    for record in records:
        kind = record["kind"]
        if kind == "span":
            start = record["start"]
            end = record["end"]
            args = dict(record["args"]) if record.get("args") else {}
            if end is None:
                end = max(end_time, start)
                args["open"] = True
            events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": record["cat"],
                    "pid": _PID,
                    "tid": tid_of[f"{record['track']} · {record['cat']}"],
                    "ts": _ts(start),
                    "dur": max(1, _ts(end) - _ts(start)),
                    "args": args,
                }
            )
        elif kind == "instant":
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": record["name"],
                    "cat": record["cat"],
                    "pid": _PID,
                    "tid": tid_of[record["track"]],
                    "ts": _ts(record["time"]),
                    "args": record.get("args") or {},
                }
            )
        elif kind == "counter":
            events.append(
                {
                    "ph": "C",
                    "name": record["name"],
                    "pid": _PID,
                    "tid": 0,
                    "ts": _ts(record["time"]),
                    "args": {"value": record["value"]},
                }
            )
        elif kind in ("flow_s", "flow_f"):
            flow_id = record["id"]
            if flow_id not in matched_flows:
                continue
            tid = tid_of[record["track"]]
            ts = _ts(record["time"])
            anchor_name = "send" if kind == "flow_s" else "recv"
            events.append(
                {
                    "ph": "X",
                    "name": f"{anchor_name} {record['name']}",
                    "cat": "msg",
                    "pid": _PID,
                    "tid": tid,
                    "ts": ts,
                    "dur": 1,
                    "args": record.get("args") or {},
                }
            )
            flow_event: Dict[str, Any] = {
                "ph": "s" if kind == "flow_s" else "f",
                "name": record["name"],
                "cat": "flow",
                "id": flow_id,
                "pid": _PID,
                "tid": tid,
                "ts": ts,
            }
            if kind == "flow_f":
                flow_event["bp"] = "e"
            events.append(flow_event)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Any) -> Dict[str, int]:
    """Structural check of a Chrome trace-event document.

    Raises ``ValueError`` on the first malformed event; returns per-phase
    event counts on success.  This is deliberately a schema check of the
    subset this exporter emits (plus the generic requirements any
    trace-event consumer enforces), not a full Perfetto reimplementation.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document must be an object with a 'traceEvents' list")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    counts: Dict[str, int] = {}
    open_flows: Dict[Any, int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        phase = event.get("ph")
        if phase not in _EMITTED_PHASES:
            raise ValueError(f"traceEvents[{index}] has unsupported phase {phase!r}")
        if "name" not in event or not isinstance(event["name"], str):
            raise ValueError(f"traceEvents[{index}] is missing a string 'name'")
        if "pid" not in event:
            raise ValueError(f"traceEvents[{index}] is missing 'pid'")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{index}] needs a non-negative numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{index}] ('X') needs a non-negative 'dur'")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"traceEvents[{index}] ('C') needs numeric series in 'args'")
            for value in args.values():
                if not isinstance(value, (int, float)):
                    raise ValueError(f"traceEvents[{index}] ('C') has a non-numeric sample")
        if phase in ("s", "f"):
            if "id" not in event:
                raise ValueError(f"traceEvents[{index}] ('{phase}') is missing a flow 'id'")
            delta = 1 if phase == "s" else -1
            open_flows[event["id"]] = open_flows.get(event["id"], 0) + delta
        if phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"traceEvents[{index}] ('M') needs args.name")
        counts[phase] = counts.get(phase, 0) + 1
    unmatched = [flow_id for flow_id, balance in open_flows.items() if balance != 0]
    if unmatched:
        raise ValueError(f"unbalanced flow ids: {unmatched[:5]}")
    return counts


def write_chrome_trace(dump: Dict[str, Any], path: Union[str, Path]) -> Dict[str, int]:
    """Export a recording to ``path`` as validated Chrome trace JSON.

    The document is validated *before* being written, so a schema bug can
    never ship an unloadable trace; returns the per-phase event counts.
    """
    document = to_chrome_trace(dump)
    counts = validate_chrome_trace(document)
    Path(path).write_text(json.dumps(document), encoding="utf-8")
    return counts


def campaign_chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert a campaign ledger's records to a Chrome trace document.

    The cell-level twin of :func:`to_chrome_trace`: one thread track per
    worker pid, one complete ("X") slice per executed cell spanning
    ``[t - wall, t]``, and instants for campaign begin/end, cache hits and
    heartbeats — so a whole fuzz campaign's scheduling (worker utilization,
    stragglers, dead pulses) opens in the same Perfetto UI as a single
    cell's flight recording.  Ledger times are wall-clock epoch seconds;
    the earliest record is rebased to ts 0.
    """
    records = [record for record in records if isinstance(record.get("t"), (int, float))]
    base = min((record["t"] for record in records), default=0.0)

    pids: Set[int] = set()
    for record in records:
        pid = record.get("pid")
        if isinstance(pid, int):
            pids.add(pid)
    tid_of = {pid: tid for tid, pid in enumerate(sorted(pids), start=1)}

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro-campaign"},
        }
    ]
    for pid, tid in sorted(tid_of.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": f"worker {pid}"},
            }
        )

    def rebased(time: float) -> int:
        return max(0, _ts(time - base))

    for record in records:
        event = record.get("event")
        t = record["t"]
        tid = tid_of.get(record.get("pid"), 0)
        if event in ("cell-done", "cell-failed"):
            wall = record.get("wall")
            wall = float(wall) if isinstance(wall, (int, float)) else 0.0
            end = rebased(t)
            start = max(0, end - _ts(wall))
            args: Dict[str, Any] = {"index": record.get("index")}
            if event == "cell-failed":
                error = record.get("error") or {}
                args["error"] = f"{error.get('type')}: {error.get('message')}"
            events.append(
                {
                    "ph": "X",
                    "name": str(record.get("cell") or f"cell-{record.get('index')}"),
                    "cat": "cell" if event == "cell-done" else "cell-failed",
                    "pid": _PID,
                    "tid": tid,
                    "ts": start,
                    "dur": max(1, end - start),
                    "args": args,
                }
            )
        elif event in ("campaign-begin", "campaign-end", "cache-hit", "heartbeat"):
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": str(event),
                    "cat": "campaign",
                    "pid": _PID,
                    "tid": tid,
                    "ts": rebased(t),
                    "args": {"cell": record["cell"]} if record.get("cell") else {},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_campaign_trace(
    records: Iterable[Dict[str, Any]], path: Union[str, Path]
) -> Dict[str, int]:
    """Export ledger records to ``path`` as validated Chrome trace JSON."""
    document = campaign_chrome_trace(records)
    counts = validate_chrome_trace(document)
    Path(path).write_text(json.dumps(document), encoding="utf-8")
    return counts


def timeseries_json(series: Iterable[TimeSeries]) -> Dict[str, Any]:
    """All time series as one JSON document (sorted by series name)."""
    return {
        "series": sorted(
            (item.to_json_dict() for item in series), key=lambda entry: entry["name"]
        )
    }


def write_timeseries_csv(series: Iterable[TimeSeries], path: Union[str, Path]) -> int:
    """Write ``(series, bucket_start, value)`` rows to ``path``; returns rows.

    One long-format CSV keeps every per-replica gauge in a single file that
    loads straight into pandas/gnuplot without a join.
    """
    rows = 0
    lines = ["series,bucket_start,value"]
    for item in sorted(series, key=lambda entry: entry.name):
        for start, value in item.buckets():
            lines.append(f"{item.name},{start:g},{value:g}")
            rows += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


__all__ = [
    "campaign_chrome_trace",
    "timeseries_json",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_campaign_trace",
    "write_chrome_trace",
    "write_timeseries_csv",
]
