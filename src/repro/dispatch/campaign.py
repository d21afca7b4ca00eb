"""Campaign manifests: reduce a ledger's event stream to live accounting.

A ledger (:mod:`repro.dispatch.ledger`) is an append-only fact stream; this
module is the read side.  :func:`reduce_ledger` folds the records into a
:class:`CampaignManifest` — total / done / failed / cache-hit / in-flight /
pending cell accounting that always sums back to the campaign total, plus
throughput, an ETA, a wall-time histogram over executed cells, failure
signatures grouped via :class:`repro.triage.FailureSignature`, summed
:attr:`ScenarioResult.counters <repro.scenarios.ScenarioResult.counters>`
and per-worker utilization derived from heartbeats.

The reducer is pure (records in, manifest out) so crash-mid-campaign
ledgers reduce exactly like live ones: whatever survived on disk *is* the
campaign state — which is precisely the property a resume-from-where-we-
stopped worker farm will rely on.

``format_status`` / ``format_report`` / ``format_event`` render manifests
for the ``repro campaign status|report|tail`` CLI verbs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.metrics import Histogram

#: A worker whose last pulse is older than this many heartbeat intervals is
#: reported dead — the RD-MCL ``clean_dead_threads`` threshold shape.
DEAD_AFTER_INTERVALS = 3.0

#: Slowest-cell leaderboard length kept by the reducer.
SLOWEST_CELLS = 10


@dataclass
class WorkerStats:
    """Everything the ledger reveals about one worker process."""

    pid: int
    last_seen: float = 0.0
    first_seen: float = float("inf")
    cells: int = 0
    failed: int = 0
    busy_seconds: float = 0.0
    heartbeats: int = 0

    def observe(self, t: Optional[float]) -> None:
        if t is None:
            return
        self.last_seen = max(self.last_seen, t)
        self.first_seen = min(self.first_seen, t)


@dataclass
class SignatureGroup:
    """One failure mode's share of a campaign."""

    key: str
    label: str
    cells: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.cells)


@dataclass
class CampaignManifest:
    """The reduced state of one campaign ledger."""

    task: Optional[str] = None
    name: Optional[str] = None
    total: int = 0
    workers: Optional[int] = None
    source: Optional[str] = None
    heartbeat_interval: float = 5.0
    meta: Dict[str, Any] = field(default_factory=dict)
    begun_at: Optional[float] = None
    ended_at: Optional[float] = None
    last_event_at: Optional[float] = None
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    violating: int = 0  # done cells whose outcome recorded oracle violations
    counters: Dict[str, int] = field(default_factory=dict)
    signatures: Dict[str, SignatureGroup] = field(default_factory=dict)
    errors: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    wall: Histogram = field(default_factory=lambda: Histogram("cell_wall_seconds"))
    slowest: List[Tuple[float, str]] = field(default_factory=list)
    worker_stats: Dict[int, WorkerStats] = field(default_factory=dict)
    _started: Set[int] = field(default_factory=set)
    _finished: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # accounting — done + failed + cache_hits + in_flight + pending == total

    @property
    def in_flight(self) -> int:
        """Cells that started but never reported an outcome."""
        return len(self._started - self._finished)

    @property
    def pending(self) -> int:
        """Cells the campaign never reached."""
        return max(0, self.total - self.done - self.failed - self.cache_hits - self.in_flight)

    @property
    def completed(self) -> int:
        """Cells with a final outcome, cache hits included."""
        return self.done + self.failed + self.cache_hits

    @property
    def finished(self) -> bool:
        """True when the ledger holds a ``campaign-end`` record."""
        return self.ended_at is not None

    def accounted(self) -> bool:
        """Every cell lands in exactly one bucket — the ledger invariant."""
        return self.done + self.failed + self.cache_hits + self.in_flight + self.pending == self.total

    # ------------------------------------------------------------------
    # rates

    def elapsed_seconds(self, now: Optional[float] = None) -> float:
        """Campaign wall time: to the end record, else to the last event."""
        if self.begun_at is None:
            return 0.0
        end = self.ended_at
        if end is None:
            end = now if now is not None else self.last_event_at
        if end is None:
            return 0.0
        return max(0.0, end - self.begun_at)

    def cells_per_second(self, now: Optional[float] = None) -> float:
        """Completion throughput over the campaign so far."""
        elapsed = self.elapsed_seconds(now=now if not self.finished else None)
        if elapsed <= 0.0 or self.completed == 0:
            return 0.0
        return self.completed / elapsed

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Projected seconds to drain in-flight + pending cells, or None.

        None when the campaign already ended or nothing completed yet (no
        rate to extrapolate from).
        """
        if self.finished:
            return None
        rate = self.cells_per_second(now=now)
        remaining = self.in_flight + self.pending
        if rate <= 0.0:
            return None
        return remaining / rate

    # ------------------------------------------------------------------
    # liveness

    def run_state(self, now: Optional[float] = None) -> str:
        """``finished``, ``running`` or ``interrupted`` (stale, no end record)."""
        if self.finished:
            return "finished"
        if self.last_event_at is None:
            return "interrupted"
        reference = now if now is not None else time.time()
        if reference - self.last_event_at > DEAD_AFTER_INTERVALS * self.heartbeat_interval:
            return "interrupted"
        return "running"

    def dead_workers(self, now: Optional[float] = None) -> List[int]:
        """Worker pids whose pulse went stale while the campaign still runs."""
        if self.finished:
            return []
        reference = now if now is not None else time.time()
        cutoff = DEAD_AFTER_INTERVALS * self.heartbeat_interval
        return sorted(
            stats.pid
            for stats in self.worker_stats.values()
            if reference - stats.last_seen > cutoff
        )


def _cell_label(record: Dict[str, Any]) -> str:
    cell = record.get("cell")
    if isinstance(cell, str) and cell:
        return cell
    return f"cell-{record.get('index', '?')}"


def _signature_group(manifest: CampaignManifest, outcome: Dict[str, Any], cell: str) -> None:
    """Fold one violating cell's outcome into the signature breakdown."""
    signature_json = outcome.get("signature")
    key = outcome.get("signature_key")
    label = outcome.get("signature_label")
    if isinstance(signature_json, dict):
        try:
            from repro.triage.signature import FailureSignature

            signature = FailureSignature.from_json_dict(signature_json)
            key, label = signature.key(), signature.label()
        except (KeyError, TypeError, ValueError):
            pass  # foreign/older ledger: fall back to the stored key/label
    if not key:
        key, label = "unsigned", "unsigned-failure"
    group = manifest.signatures.get(key)
    if group is None:
        group = manifest.signatures[key] = SignatureGroup(key=key, label=label or key)
    group.cells.append(cell)


def reduce_ledger(records: Sequence[Dict[str, Any]]) -> CampaignManifest:
    """Fold a ledger's records (in file order) into a :class:`CampaignManifest`.

    Unknown event kinds are ignored (forward compatibility) and replayed
    duplicates collapse through the index sets, so a reducer never crashes
    on a ledger written by a newer or interrupted campaign.
    """
    manifest = CampaignManifest()

    def worker(pid: Any, t: Optional[float]) -> Optional[WorkerStats]:
        if not isinstance(pid, int):
            return None
        stats = manifest.worker_stats.get(pid)
        if stats is None:
            stats = manifest.worker_stats[pid] = WorkerStats(pid=pid)
        stats.observe(t)
        return stats

    for record in records:
        event = record.get("event")
        t = record.get("t")
        if isinstance(t, (int, float)):
            manifest.last_event_at = max(manifest.last_event_at or t, t)
        else:
            t = None
        if event == "campaign-begin":
            manifest.task = record.get("task")
            manifest.name = record.get("name")
            manifest.total = int(record.get("total") or 0)
            manifest.workers = record.get("workers")
            manifest.source = record.get("source")
            manifest.begun_at = t
            interval = record.get("heartbeat_interval")
            if isinstance(interval, (int, float)) and interval > 0:
                manifest.heartbeat_interval = float(interval)
            meta = record.get("meta")
            if isinstance(meta, dict):
                manifest.meta = dict(meta)
        elif event == "cell-start":
            index = record.get("index")
            if isinstance(index, int):
                manifest._started.add(index)
            worker(record.get("pid"), t)
        elif event in ("cell-done", "cell-failed"):
            index = record.get("index")
            cell = _cell_label(record)
            if isinstance(index, int):
                if index in manifest._finished:
                    continue  # replayed duplicate
                manifest._started.add(index)
                manifest._finished.add(index)
            wall = record.get("wall")
            stats = worker(record.get("pid"), t)
            if isinstance(wall, (int, float)):
                manifest.wall.observe(float(wall))
                manifest.slowest.append((float(wall), cell))
                manifest.slowest.sort(key=lambda item: -item[0])
                del manifest.slowest[SLOWEST_CELLS:]
                if stats is not None:
                    stats.busy_seconds += float(wall)
            if stats is not None:
                stats.cells += 1
            if event == "cell-done":
                manifest.done += 1
                outcome = record.get("outcome")
                if isinstance(outcome, dict):
                    for name, value in (outcome.get("counters") or {}).items():
                        if isinstance(value, (int, float)):
                            manifest.counters[name] = manifest.counters.get(name, 0) + value
                    if outcome.get("violations"):
                        manifest.violating += 1
                        _signature_group(manifest, outcome, cell)
            else:
                manifest.failed += 1
                if stats is not None:
                    stats.failed += 1
                error = record.get("error") or {}
                error_type = str(error.get("type", "Exception"))
                manifest.errors.setdefault(error_type, []).append(
                    (cell, str(error.get("message", "")))
                )
        elif event == "cache-hit":
            index = record.get("index")
            if isinstance(index, int):
                if index in manifest._finished:
                    continue
                manifest._started.add(index)
                manifest._finished.add(index)
            manifest.cache_hits += 1
        elif event == "heartbeat":
            stats = worker(record.get("pid"), t)
            if stats is not None:
                stats.heartbeats += 1
        elif event == "campaign-end":
            manifest.ended_at = t
    return manifest


# ----------------------------------------------------------------------
# rendering (the `repro campaign` CLI verbs)
# ----------------------------------------------------------------------


def _span(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def format_status(manifest: CampaignManifest, now: Optional[float] = None) -> str:
    """The ``repro campaign status`` view: accounting, rate, ETA, workers."""
    reference = now if now is not None else time.time()
    state = manifest.run_state(now=reference)
    lines = [
        f"campaign {manifest.name or '?'} (task {manifest.task or '?'}): {state}",
        (
            f"  cells: {manifest.total} total — {manifest.done} done, "
            f"{manifest.failed} failed, {manifest.cache_hits} cached, "
            f"{manifest.in_flight} in flight, {manifest.pending} pending"
        ),
    ]
    rate = manifest.cells_per_second(now=reference if state == "running" else None)
    elapsed = manifest.elapsed_seconds(now=reference if state == "running" else None)
    line = f"  progress: {manifest.completed}/{manifest.total} in {_span(elapsed)}"
    if rate > 0:
        line += f" ({rate:.2f} cells/s)"
    eta = manifest.eta_seconds(now=reference) if state == "running" else None
    if eta is not None:
        line += f", ETA ~{_span(eta)}"
    elif state == "interrupted":
        remaining = manifest.in_flight + manifest.pending
        line += f", {remaining} cell(s) left behind"
    lines.append(line)
    if manifest.violating:
        lines.append(
            f"  violations: {manifest.violating} cell(s) across "
            f"{len(manifest.signatures)} failure signature(s)"
        )
    dead = set(manifest.dead_workers(now=reference))
    for pid in sorted(manifest.worker_stats):
        stats = manifest.worker_stats[pid]
        age = reference - stats.last_seen if stats.last_seen else None
        label = "DEAD" if pid in dead else ("done" if manifest.finished else "alive")
        lines.append(
            f"  worker {pid}: {stats.cells} cell(s), {stats.failed} failed, "
            f"{stats.heartbeats} heartbeat(s), last seen {_span(age)} ago [{label}]"
        )
    if not manifest.accounted():  # pragma: no cover - reducer invariant
        lines.append("  WARNING: cell accounting does not sum to the campaign total")
    return "\n".join(lines)


def format_report(
    manifest: CampaignManifest, now: Optional[float] = None, top: int = 5
) -> str:
    """The ``repro campaign report`` view: status + breakdowns.

    Adds the failure-signature table, per-error-type crash list, the
    wall-time distribution over executed cells, the slowest-cell
    leaderboard, summed liveness counters and worker utilization.
    """
    reference = now if now is not None else time.time()
    lines = [format_status(manifest, now=reference)]
    if manifest.signatures:
        lines.append("failure signatures:")
        groups = sorted(manifest.signatures.values(), key=lambda g: (-g.count, g.key))
        for group in groups:
            cells = ", ".join(group.cells[:top])
            suffix = ", ..." if group.count > top else ""
            lines.append(f"  {group.key}  {group.label}  x{group.count}: {cells}{suffix}")
    if manifest.errors:
        lines.append("cell errors:")
        for error_type in sorted(manifest.errors):
            entries = manifest.errors[error_type]
            lines.append(f"  {error_type} x{len(entries)}:")
            for cell, message in entries[:top]:
                lines.append(f"    {cell}: {message}")
            if len(entries) > top:
                lines.append(f"    ... {len(entries) - top} more")
    if manifest.wall.count:
        lines.append(
            f"cell wall time ({manifest.wall.count} executed): "
            f"p50 {manifest.wall.percentile(0.50):.2f}s  "
            f"p99 {manifest.wall.percentile(0.99):.2f}s  "
            f"max {manifest.wall.maximum():.2f}s  "
            f"mean {manifest.wall.mean():.2f}s"
        )
    if manifest.slowest:
        lines.append("slowest cells:")
        for wall, cell in manifest.slowest[:top]:
            lines.append(f"  {wall:8.2f}s  {cell}")
    if manifest.counters:
        rendered = " ".join(
            f"{name}={value}" for name, value in sorted(manifest.counters.items())
        )
        lines.append(f"liveness counters (summed over cells): {rendered}")
    if manifest.worker_stats:
        elapsed = manifest.elapsed_seconds(
            now=reference if not manifest.finished else None
        )
        lines.append("worker utilization:")
        for pid in sorted(manifest.worker_stats):
            stats = manifest.worker_stats[pid]
            share = stats.busy_seconds / elapsed if elapsed > 0 else 0.0
            lines.append(
                f"  worker {pid}: {stats.cells} cell(s) in {stats.busy_seconds:.1f}s busy "
                f"({min(share, 1.0):.0%} of {_span(elapsed)})"
            )
    return "\n".join(lines)


def format_event(record: Dict[str, Any]) -> str:
    """One ledger record as a single human-readable ``campaign tail`` line."""
    t = record.get("t")
    stamp = time.strftime("%H:%M:%S", time.localtime(t)) if isinstance(t, (int, float)) else "--:--:--"
    event = record.get("event", "?")
    if event == "campaign-begin":
        detail = (
            f"{record.get('name')} task={record.get('task')} "
            f"total={record.get('total')} workers={record.get('workers')}"
        )
    elif event in ("cell-start", "cache-hit"):
        detail = f"#{record.get('index')} {record.get('cell')}"
        if event == "cell-start":
            detail += f" pid={record.get('pid')}"
    elif event == "cell-done":
        outcome = record.get("outcome") or {}
        violations = outcome.get("violations", 0)
        verdict = f"violations={violations}" if violations else "ok"
        detail = f"#{record.get('index')} {record.get('cell')} {record.get('wall', 0):.2f}s {verdict}"
    elif event == "cell-failed":
        error = record.get("error") or {}
        detail = (
            f"#{record.get('index')} {record.get('cell')} {record.get('wall', 0):.2f}s "
            f"{error.get('type')}: {error.get('message')}"
        )
    elif event == "heartbeat":
        detail = f"pid={record.get('pid')}"
        if "done" in record:
            detail += f" done={record.get('done')} failed={record.get('failed')}"
    elif event == "campaign-end":
        rollup = record.get("manifest") or {}
        detail = (
            f"done={rollup.get('done')} failed={rollup.get('failed')} "
            f"cached={rollup.get('cache_hits')} wall={_span(record.get('wall'))}"
        )
    else:
        detail = ""
    return f"{stamp}  {event:14} {detail}".rstrip()


__all__ = [
    "CampaignManifest",
    "DEAD_AFTER_INTERVALS",
    "SignatureGroup",
    "WorkerStats",
    "format_event",
    "format_report",
    "format_status",
    "reduce_ledger",
]
