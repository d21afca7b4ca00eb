"""Span-based flight recorder for the consensus stack.

The :class:`Tracer` is a bounded ring buffer of typed trace records — spans
(view-change / progress-deadline / state-transfer / chain-sync episodes),
instants (transaction lifecycle stages: submit, propose, commit, execute,
inform), message send→deliver flow edges, and sampled counters (commit
frontier, view number, queue depth, in-flight messages).

Design constraints, in priority order:

* **Strictly zero-cost when disabled.**  Nothing in this module runs unless
  a tracer is attached; every instrumentation point in the simulator stack
  guards on a single cached attribute (``self.tracer is None``).
* **Observation-only.**  Recording draws no randomness and never mutates
  protocol or network state, so golden digests are identical with tracing
  on or off.  The only interaction with the simulator is reading ``now``
  (and, for the :class:`TelemetrySampler`, scheduling pure-read probe
  events, which cannot change the relative order of protocol events).
* **Flight-recorder semantics.**  The ring buffer keeps the *trailing*
  window of a run: when the invariant oracle flags a violation, the dump is
  the last N records before the failure — exactly the forensic window a
  post-mortem needs.  Spans still open when the recording is dumped (a
  wedged view change that never completed) are synthesized into the dump
  with ``end: null``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Union

#: Schema version stamped into dumps; bump on incompatible record changes.
DUMP_FORMAT = 1

#: Default ring capacity: enough for the trailing few hundred ms of a busy
#: cell (message flows dominate) while keeping a dump comfortably archivable.
DEFAULT_CAPACITY = 100_000

TrackRef = Union[int, str]


class Tracer:
    """Records typed spans, instants, flows and counters into a ring buffer.

    Parameters
    ----------
    simulator:
        Supplies the clock (``simulator.now``); never mutated.
    capacity:
        Ring size in records; ``None`` means unbounded (full-trace capture
        for ``repro trace``).  Bounded is the flight-recorder mode.
    """

    def __init__(self, simulator: Any, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self._sim = simulator
        self.capacity = capacity
        self._records: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._open: Dict[int, Dict[str, Any]] = {}
        self._next_id = 1
        self._tracks: Dict[int, str] = {}
        self.recorded_total = 0

    # ------------------------------------------------------------------
    # track registry
    # ------------------------------------------------------------------

    def register_track(self, node_id: int, name: str) -> None:
        """Name the timeline track for ``node_id`` (e.g. ``replica-3``)."""
        self._tracks[node_id] = name

    def track_name(self, track: TrackRef) -> str:
        """Resolve a node id or literal string to its track name."""
        if track.__class__ is int:
            return self._tracks.get(track) or f"node-{track}"
        return track  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def begin(self, track: TrackRef, category: str, name: str, **args: Any) -> int:
        """Open a span; returns a token for :meth:`end`.

        One span per (track, category) should be open at a time — callers
        hold the token and end/supersede it — which keeps every exported
        category row free of overlapping slices.
        """
        token = self._next_id
        self._next_id += 1
        self._open[token] = {
            "kind": "span",
            "track": self.track_name(track),
            "cat": category,
            "name": name,
            "start": self._sim.now,
            "end": None,
            "args": args or None,
        }
        return token

    def end(self, token: Optional[int], **args: Any) -> None:
        """Close the span opened under ``token`` (None token is a no-op)."""
        if token is None:
            return
        record = self._open.pop(token, None)
        if record is None:
            return
        record["end"] = self._sim.now
        if args:
            merged = dict(record["args"]) if record["args"] else {}
            merged.update(args)
            record["args"] = merged
        self._append(record)

    def instant(self, track: TrackRef, category: str, name: str, **args: Any) -> None:
        """Record a point event on ``track``."""
        self._append(
            {
                "kind": "instant",
                "track": self.track_name(track),
                "cat": category,
                "name": name,
                "time": self._sim.now,
                "args": args or None,
            }
        )

    def counter(self, name: str, value: float) -> None:
        """Record one sample of a numeric counter series."""
        self._append(
            {"kind": "counter", "name": name, "time": self._sim.now, "value": value}
        )

    def flow_begin(self, src: TrackRef, name: str, **args: Any) -> int:
        """Record the send half of a message flow edge; returns the flow id."""
        flow_id = self._next_id
        self._next_id += 1
        self._append(
            {
                "kind": "flow_s",
                "track": self.track_name(src),
                "name": name,
                "time": self._sim.now,
                "id": flow_id,
                "args": args or None,
            }
        )
        return flow_id

    def flow_end(self, flow_id: int, dst: TrackRef, name: str) -> None:
        """Record the deliver half of the flow opened by :meth:`flow_begin`."""
        self._append(
            {
                "kind": "flow_f",
                "track": self.track_name(dst),
                "name": name,
                "time": self._sim.now,
                "id": flow_id,
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        self.recorded_total += 1
        self._records.append(record)

    # ------------------------------------------------------------------
    # introspection / dump
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dropped_records(self) -> int:
        """Records evicted from the ring so far (0 while unbounded)."""
        return self.recorded_total - len(self._records)

    def records(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first (open spans excluded)."""
        return list(self._records)

    def dump(self) -> Dict[str, Any]:
        """JSON-serializable recording of the trailing ring-buffer window.

        Open spans are synthesized into the record stream with ``end: null``
        so a never-completed view change is visible in the timeline instead
        of silently absent.
        """
        records = list(self._records)
        records.extend(dict(record) for record in self._open.values())
        return {
            "format": DUMP_FORMAT,
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "dropped_records": self.dropped_records,
            "end_time": self._sim.now,
            "records": records,
        }

    def summary(self) -> Dict[str, Any]:
        """Aggregate statistics of the recording (for human summaries)."""
        by_kind: Dict[str, int] = {}
        span_cats: Dict[str, int] = {}
        tracks = set()
        first = None
        last = None
        for record in self._records:
            by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
            if record["kind"] == "span":
                span_cats[record["cat"]] = span_cats.get(record["cat"], 0) + 1
                when = record["start"]
            else:
                when = record.get("time", record.get("start"))
            if record.get("track"):
                tracks.add(record["track"])
            if when is not None:
                first = when if first is None else min(first, when)
                last = when if last is None else max(last, when)
        return {
            "records": len(self._records),
            "recorded_total": self.recorded_total,
            "dropped_records": self.dropped_records,
            "open_spans": len(self._open),
            "by_kind": dict(sorted(by_kind.items())),
            "span_categories": dict(sorted(span_cats.items())),
            "tracks": sorted(tracks),
            "first_time": first,
            "last_time": last,
        }


class TelemetrySampler:
    """Per-tick telemetry probe recorded into the trace and a time series.

    Every ``interval`` of simulated time it samples, for each replica, the
    commit frontier (executed transactions), the highest current view of
    its consensus instances, their skew (highest minus lowest current view;
    0 for a single-instance protocol), and the mempool queue depth, plus the
    cluster-wide in-flight message count — each as a trace counter series
    *and* a :class:`repro.sim.metrics.TimeSeries` in the cluster registry
    (bucket width = the sampling interval, one sample per bucket), which
    the exporters turn into CSV/JSON.

    The probe is pure-read: it mutates no protocol or network state and
    draws no randomness, so its presence cannot change a run's outcome.
    """

    def __init__(self, cluster: Any, tracer: Tracer, interval: float) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.cluster = cluster
        self.tracer = tracer
        self.interval = interval
        self._started = False
        # Index of the last tick: tick k fires at k · interval and records
        # into bucket k, so no two ticks share a bucket.
        self._ticks = 0

    def start(self) -> None:
        """Arm the self-scheduling probe (idempotent)."""
        if self._started:
            return
        self._started = True
        self._ticks = int(self.cluster.simulator.now // self.interval)
        self._schedule_next()

    def _schedule_next(self) -> None:
        simulator = self.cluster.simulator
        # k · interval, rounded to the nanosecond so that a decimal interval
        # lands on its decimal multiples (6 × 0.05 is 0.30000000000000004).
        at = round((self._ticks + 1) * self.interval, 9)
        simulator.schedule(max(0.0, at - simulator.now), self._tick, label="obs:telemetry")

    def _tick(self) -> None:
        cluster = self.cluster
        tracer = self.tracer
        self._ticks = bucket = self._ticks + 1
        metrics = cluster.metrics
        series = metrics.time_series
        interval = self.interval
        for replica in cluster.replicas:
            rid = replica.node_id
            frontier = replica.executed_transactions
            views = replica.instance_views().values()
            view = max(views)
            skew = view - min(views)
            depth = replica.mempool.pending_count()
            tracer.counter(f"commit-frontier/r{rid}", frontier)
            tracer.counter(f"view/r{rid}", view)
            tracer.counter(f"instance-skew/r{rid}", skew)
            tracer.counter(f"queue-depth/r{rid}", depth)
            series(f"obs.frontier.r{rid}", interval).record_in_bucket(bucket, frontier)
            series(f"obs.view.r{rid}", interval).record_in_bucket(bucket, view)
            series(f"obs.instance_skew.r{rid}", interval).record_in_bucket(bucket, skew)
            series(f"obs.queue_depth.r{rid}", interval).record_in_bucket(bucket, depth)
        network = cluster.network
        in_flight = (
            network._c_sent.value
            - network._c_delivered.value
            - network._c_dropped.value
        )
        tracer.counter("in-flight-messages", in_flight)
        series("obs.in_flight", interval).record_in_bucket(bucket, in_flight)
        self._schedule_next()


__all__ = ["DEFAULT_CAPACITY", "DUMP_FORMAT", "Tracer", "TelemetrySampler"]
