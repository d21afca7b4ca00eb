"""Append-only campaign ledger: the durable record of a dispatched run.

``Dispatcher.run`` is in-memory only — when the process dies, so does every
trace of which cells ran, how long they took and what they found.  A
:class:`CampaignLedger` fixes that by appending one structured JSONL record
per campaign event to a file that outlives the process:

* ``campaign-begin`` — task kind, cell count, worker count, the source-tree
  fingerprint and any caller metadata (fuzz seed, matrix name, ...);
* ``cell-start`` / ``cell-done`` / ``cell-failed`` / ``cache-hit`` — one
  record per cell transition, stamped with the cell's content-address key
  (the same key the :class:`~repro.dispatch.cache.ResultCache` would use),
  the worker pid and the measured wall seconds;
* ``heartbeat`` — periodic worker-pulse records (a daemon thread per pool
  worker, the master between cells) in the RD-MCL work_db/heartbeat_db
  shape, so a reader can tell a slow campaign from a dead one;
* ``campaign-end`` — a small manifest rollup, only written when the run
  completed; an interrupted campaign is recognizable by its absence.

Records are appended with a single ``os.write`` to an ``O_APPEND`` file
descriptor, so concurrent workers and the master can share one file without
locks and a crash can corrupt at most the final line — which the tolerant
:func:`read_ledger` reader skips.  The ledger is an observation channel:
it never feeds back into results or cache keys, so serial and parallel
runs of the same campaign stay byte-identical with it enabled.

``repro campaign status|report|tail <ledger>`` reads these files; the
:mod:`repro.dispatch.campaign` reducer turns them into a manifest
(total / done / failed / in-flight / pending) — the exact record a
resumable worker farm needs to pick a campaign back up.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Schema version stamped into ``campaign-begin``; bump on layout change.
LEDGER_FORMAT = 1

#: Default seconds between worker heartbeat records (wall-clock time).
HEARTBEAT_INTERVAL = 5.0

#: Tracebacks are truncated to keep every record within one atomic append.
_MAX_TRACEBACK_CHARS = 3000

#: Default directory for auto-named CLI campaign ledgers.
DEFAULT_LEDGER_DIR = "campaign-ledgers"


def append_record(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append one JSON record to ``path`` as a single atomic line.

    Opens with ``O_APPEND`` and writes the whole line in one ``os.write``
    call, which POSIX keeps contiguous for concurrent appenders — worker
    processes and the master interleave whole records, never fragments.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    descriptor = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(descriptor, line.encode("utf-8"))
    finally:
        os.close(descriptor)


def read_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every decodable record of a ledger file, in file order.

    Tolerant by design: a campaign killed mid-append leaves at most one
    truncated final line, and a reader watching a live file can race an
    in-flight write — either way the bad line is skipped, never fatal.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def default_ledger_path(kind: str, directory: Union[str, Path, None] = None) -> Path:
    """An auto-generated per-campaign ledger path under ``directory``.

    The timestamp+pid suffix keeps concurrent campaigns (e.g. a nightly
    fuzz run racing a manual one) from appending into each other's file.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S")
    root = Path(directory) if directory is not None else Path(DEFAULT_LEDGER_DIR)
    return root / f"{kind}-{stamp}-{os.getpid()}.jsonl"


class CampaignLedger:
    """Writer side of one campaign's append-only JSONL event stream.

    One ledger records one :meth:`Dispatcher.run <repro.dispatch.Dispatcher.run>`
    campaign; :meth:`begin` truncates any previous content so a re-used
    path never holds two interleaved campaigns.  All methods are cheap
    append-and-flush calls — the ledger is safe on the dispatch hot path.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.path = Path(path)
        self.name = name if name is not None else self.path.stem
        self.heartbeat_interval = heartbeat_interval
        self.meta = dict(meta or {})
        self._last_heartbeat = 0.0

    # ------------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        append_record(self.path, record)

    def begin(self, task: str, total: int, workers: int) -> None:
        """Open the campaign: write ``campaign-begin`` on a fresh file."""
        from repro.dispatch.fingerprint import source_fingerprint

        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Truncate: one ledger file == one campaign.  Append-only refers to
        # the event stream within a campaign, not across re-runs of a path.
        self.path.write_text("", encoding="utf-8")
        self._last_heartbeat = time.time()
        self._append(
            {
                "event": "campaign-begin",
                "format": LEDGER_FORMAT,
                "t": time.time(),
                "task": task,
                "name": self.name,
                "total": total,
                "workers": workers,
                "pid": os.getpid(),
                "source": source_fingerprint(),
                "heartbeat_interval": self.heartbeat_interval,
                "meta": self.meta,
            }
        )

    def cell_done(
        self,
        index: int,
        cell: str,
        key: Optional[str],
        pid: int,
        wall_seconds: float,
        outcome: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A cell finished cleanly; ``outcome`` is the task's summary."""
        self._append(
            {
                "event": "cell-done",
                "t": time.time(),
                "index": index,
                "cell": cell,
                "key": key,
                "pid": pid,
                "wall": wall_seconds,
                "outcome": outcome or {},
            }
        )

    def cell_failed(
        self,
        index: int,
        cell: str,
        key: Optional[str],
        pid: int,
        wall_seconds: float,
        error: Dict[str, Any],
    ) -> None:
        """A cell raised; ``error`` carries type/message/truncated traceback."""
        trimmed = dict(error)
        traceback_text = trimmed.get("traceback")
        if isinstance(traceback_text, str) and len(traceback_text) > _MAX_TRACEBACK_CHARS:
            trimmed["traceback"] = traceback_text[-_MAX_TRACEBACK_CHARS:]
        self._append(
            {
                "event": "cell-failed",
                "t": time.time(),
                "index": index,
                "cell": cell,
                "key": key,
                "pid": pid,
                "wall": wall_seconds,
                "error": trimmed,
            }
        )

    def cache_hit(self, index: int, cell: str, key: Optional[str]) -> None:
        """A cell was served from the result cache without executing."""
        self._append(
            {
                "event": "cache-hit",
                "t": time.time(),
                "index": index,
                "cell": cell,
                "key": key,
            }
        )

    def maybe_heartbeat(self, done: int, failed: int) -> None:
        """Master-side pulse: emitted between cells when the interval lapsed.

        Pool workers pulse from their own daemon threads (see
        :func:`worker_heartbeat_init`); the master pulses here so serial
        campaigns and the collector loop stay observable too.
        """
        now = time.time()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        self._append(
            {
                "event": "heartbeat",
                "t": now,
                "pid": os.getpid(),
                "done": done,
                "failed": failed,
            }
        )

    def finish(self) -> Dict[str, Any]:
        """Close the campaign: append ``campaign-end`` with a count rollup.

        The rollup is re-derived from the file itself (workers appended
        their own ``cell-start``/``heartbeat`` records), so it reflects
        what a later reader will see, not what the master remembers.
        """
        done = failed = cache_hits = 0
        begun_at: Optional[float] = None
        for record in read_ledger(self.path):
            event = record.get("event")
            if event == "cell-done":
                done += 1
            elif event == "cell-failed":
                failed += 1
            elif event == "cache-hit":
                cache_hits += 1
            elif event == "campaign-begin":
                begun_at = record.get("t")
        now = time.time()
        rollup = {
            "event": "campaign-end",
            "t": now,
            "wall": (now - begun_at) if begun_at is not None else None,
            "manifest": {"done": done, "failed": failed, "cache_hits": cache_hits},
        }
        self._append(rollup)
        return rollup


# ----------------------------------------------------------------------
# worker-side hooks (top-level: pool initializers resolve them by name)
# ----------------------------------------------------------------------


def worker_cell_start(
    path: Union[str, Path], index: int, cell: str, key: Optional[str]
) -> None:
    """Append ``cell-start`` from the process about to run the cell (a pool
    worker, or the caller itself on a serial run)."""
    append_record(
        path,
        {
            "event": "cell-start",
            "t": time.time(),
            "index": index,
            "cell": cell,
            "key": key,
            "pid": os.getpid(),
        },
    )


def _heartbeat_loop(path: str, interval: float) -> None:
    while True:
        time.sleep(interval)
        try:
            append_record(path, {"event": "heartbeat", "t": time.time(), "pid": os.getpid()})
        except OSError:
            return  # ledger directory vanished; stop pulsing, keep working


def worker_heartbeat_init(path: str, interval: float) -> None:
    """Pool initializer: start this worker's heartbeat daemon thread.

    Runs once per worker process.  The first pulse is immediate so the
    manifest registers the worker before its first cell completes; the
    daemon thread then pulses every ``interval`` wall-clock seconds until
    the worker exits (daemon threads die with the process, so pool
    shutdown never blocks on them).
    """
    try:
        append_record(path, {"event": "heartbeat", "t": time.time(), "pid": os.getpid()})
    except OSError:
        return
    thread = threading.Thread(
        target=_heartbeat_loop, args=(path, interval), name="ledger-heartbeat", daemon=True
    )
    thread.start()


__all__ = [
    "CampaignLedger",
    "DEFAULT_LEDGER_DIR",
    "HEARTBEAT_INTERVAL",
    "LEDGER_FORMAT",
    "append_record",
    "default_ledger_path",
    "read_ledger",
    "worker_cell_start",
    "worker_heartbeat_init",
]
