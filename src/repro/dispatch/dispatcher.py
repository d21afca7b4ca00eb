"""Shard grid-shaped workloads across a pool of worker processes.

The simulation is fully deterministic per ``(spec, seed)`` and every cell of
a matrix runs on its own freshly seeded cluster, so a grid is embarrassingly
parallel: the :class:`Dispatcher` fans the cells out over a
``multiprocessing`` pool and collects results back **in submission order**,
which makes the serial and parallel runs of the same grid byte-identical —
same tables, same golden digests.

Cells carry their own deterministic seeds (derived by the matrix and fuzz
builders via :func:`repro.sim.rng.derive_seed`), so nothing about the
outcome depends on which worker picks a cell up or when.  A
:class:`~repro.dispatch.cache.ResultCache` short-circuits cells whose
content address already has a stored result; only the misses reach the pool.

Observability rides on two opt-in channels that never feed back into
results or cache keys:

* ``ledger=`` — a :class:`~repro.dispatch.ledger.CampaignLedger` receives
  one JSONL record per campaign event (begin, cell transitions, worker
  heartbeats, end).  The pool runs ``imap_unordered`` with index-tagged
  jobs so events stream as cells finish, while results are still slotted
  back into payload order.
* ``progress=`` — a live one-line stderr meter for long campaigns.

A raising cell no longer aborts the campaign: every cell's outcome — result
or tagged :class:`CellFailure` — is collected, and only then does
``on_error="raise"`` (the default) surface the failures as one aggregated
:exc:`DispatchError`.  ``on_error="collect"`` instead leaves the
:class:`CellFailure` records in the returned list for the caller to triage.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dispatch.cache import ResultCache, cache_key
from repro.dispatch.ledger import CampaignLedger, worker_cell_start, worker_heartbeat_init
from repro.dispatch.tasks import get_task


@dataclass(frozen=True)
class CellFailure:
    """One cell that raised, preserved instead of aborting the campaign."""

    index: int
    cell: str
    error_type: str
    message: str
    traceback: str
    wall_seconds: float
    pid: int

    def error_json(self) -> Dict[str, Any]:
        """The ledger's ``error`` field for this failure."""
        return {
            "type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    def __str__(self) -> str:
        return f"{self.cell}: {self.error_type}: {self.message}"


class DispatchError(RuntimeError):
    """Raised after a campaign completes with one or more failed cells.

    Raised *after* completion on purpose: every healthy cell's result has
    already been computed and cached, so a rerun pays only for the failures.
    """

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures = list(failures)
        preview = "; ".join(str(failure) for failure in self.failures[:3])
        if len(self.failures) > 3:
            preview += f"; ... {len(self.failures) - 3} more"
        super().__init__(f"{len(self.failures)} cell(s) failed: {preview}")


def _error_info(exc: BaseException) -> Dict[str, str]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _invoke(job: Tuple[int, str, Any, str, Optional[str], Optional[str]]) -> Tuple[int, bool, Any, float, int]:
    """Run one index-tagged cell, never raise — in a pool worker or, for a
    serial run, in the calling process.

    Top-level on purpose — worker processes locate it by module path, so it
    must never be a closure or a lambda.  Returns ``(index, ok, output-or-
    error-info, wall_seconds, pid)``; catching ``Exception`` (and only
    ``Exception`` — KeyboardInterrupt/SystemExit still tear the pool down)
    is the fault-isolation boundary that keeps one bad cell from discarding
    a campaign's worth of completed work.
    """
    index, task_name, payload, cell, key, ledger_path = job
    if ledger_path is not None:
        try:
            worker_cell_start(ledger_path, index, cell, key)
        except OSError:
            pass  # observability must never fail the cell
    start = time.time()
    try:
        output = get_task(task_name).run(payload)
    except Exception as exc:
        return (index, False, _error_info(exc), time.time() - start, os.getpid())
    return (index, True, output, time.time() - start, os.getpid())


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (Linux/CI): workers inherit the imported
    package instead of re-importing it, which keeps small grids cheap.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class DispatchStats:
    """What one :meth:`Dispatcher.run` call actually did."""

    total: int
    cache_hits: int
    executed: int
    workers: int
    failed: int = 0
    wall_seconds: float = 0.0

    def summary(self) -> str:
        """One-line account, printed to stderr by the CLI."""
        return (
            f"{self.total} cells: {self.cache_hits} cached, "
            f"{self.executed} executed, {self.failed} failed "
            f"on {self.workers} worker(s) in {self.wall_seconds:.1f}s"
        )


class _ProgressLine:
    """A single self-overwriting stderr line for long campaigns."""

    def __init__(self, name: str, total: int) -> None:
        self.name = name
        self.total = total
        self.started = time.time()
        self._last_width = 0

    def update(self, done: int, failed: int, cache_hits: int) -> None:
        completed = done + failed + cache_hits
        elapsed = time.time() - self.started
        rate = completed / elapsed if elapsed > 0 else 0.0
        remaining = self.total - completed
        eta = f" ETA {remaining / rate:5.1f}s" if rate > 0 and remaining > 0 else ""
        text = (
            f"{self.name}: {completed}/{self.total} "
            f"(done {done}, failed {failed}, cached {cache_hits}) "
            f"{rate:.2f} cells/s{eta}"
        )
        padding = " " * max(0, self._last_width - len(text))
        self._last_width = len(text)
        sys.stderr.write("\r" + text + padding)
        sys.stderr.flush()

    def close(self) -> None:
        if self._last_width:
            sys.stderr.write("\n")
            sys.stderr.flush()


class Dispatcher:
    """Runs work items of a registered task kind, parallel and cached."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        ledger: Optional[CampaignLedger] = None,
        progress: Optional[bool] = None,
        on_error: str = "raise",
    ) -> None:
        # ``workers=None`` means "unspecified" and runs serial; any explicit
        # count must be a positive integer — 0 used to be silently coerced
        # to 1, which hid caller bugs behind an accidental serial run.
        if workers is None:
            workers = 1
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValueError(f"workers must be a positive integer, got {workers!r}")
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
        self.workers = workers
        self.cache = cache
        self.ledger = ledger
        self.progress = progress
        self.on_error = on_error
        self.last_stats: Optional[DispatchStats] = None

    # ------------------------------------------------------------------

    def _progress_line(self, total: int) -> Optional[_ProgressLine]:
        if self.progress is False:
            return None
        if self.progress is None and (
            self.ledger is None or not sys.stderr.isatty()
        ):
            return None
        name = self.ledger.name if self.ledger is not None else "campaign"
        return _ProgressLine(name, total)

    def run(self, task_name: str, payloads: Sequence[Any]) -> List[Any]:
        """Execute every payload and return results in payload order.

        Cache hits are decoded in place; the remaining cells run on the
        pool (or serially for ``workers <= 1``).  Fresh results are stored
        back so the next unchanged run pays only for lookups.  With a
        ledger attached every transition is appended as it happens; the
        ledger observes the campaign but never alters results or keys.
        """
        task = get_task(task_name)
        started = time.time()
        results: List[Any] = [None] * len(payloads)
        keys: List[Optional[str]] = [None] * len(payloads)
        cells: List[str] = [""] * len(payloads)
        ledger = self.ledger
        if ledger is not None:
            ledger.begin(task_name, len(payloads), self.workers)
        # Keys come from the cache when one is attached; with only a ledger
        # the same content address is derived directly so the on-disk record
        # still names every cell by the identity a cache would use.
        fingerprint = (
            self.cache.fingerprint if self.cache is not None else _ledger_fingerprint(ledger)
        )
        pending: List[int] = []
        failures: List[CellFailure] = []
        done = 0
        progress = self._progress_line(len(payloads))
        for index, payload in enumerate(payloads):
            cells[index] = _cell_label(task, task_name, payload, index)
            if fingerprint is not None:
                keys[index] = cache_key(task_name, task.payload_json(payload), fingerprint)
            if self.cache is not None:
                stored = self.cache.get(keys[index])
                if stored is not None:
                    results[index] = task.decode(stored)
                    if ledger is not None:
                        ledger.cache_hit(index, cells[index], keys[index])
                    continue
            pending.append(index)
        cache_hits = len(payloads) - len(pending)

        jobs = [
            (index, task_name, payloads[index], cells[index], keys[index],
             str(ledger.path) if ledger is not None else None)
            for index in pending
        ]

        def collect(outcome: Tuple[int, bool, Any, float, int]) -> None:
            nonlocal done
            index, ok, output, wall, pid = outcome
            if ok:
                done += 1
                results[index] = output
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], task.encode(output))
                if ledger is not None:
                    ledger.cell_done(
                        index, cells[index], keys[index], pid, wall,
                        outcome=_summarize(task, output),
                    )
            else:
                failure = CellFailure(
                    index=index,
                    cell=cells[index],
                    error_type=output.get("type", "Exception"),
                    message=output.get("message", ""),
                    traceback=output.get("traceback", ""),
                    wall_seconds=wall,
                    pid=pid,
                )
                failures.append(failure)
                results[index] = failure
                if ledger is not None:
                    ledger.cell_failed(
                        index, cells[index], keys[index], pid, wall,
                        error=failure.error_json(),
                    )
            if ledger is not None:
                ledger.maybe_heartbeat(done, len(failures))
            if progress is not None:
                progress.update(done, len(failures), cache_hits)

        try:
            if self.workers > 1 and len(jobs) > 1:
                context = _pool_context()
                initializer = initargs = None
                if ledger is not None:
                    initializer = worker_heartbeat_init
                    initargs = (str(ledger.path), ledger.heartbeat_interval)
                pool = context.Pool(
                    processes=min(self.workers, len(jobs)),
                    initializer=initializer,
                    initargs=initargs or (),
                )
                try:
                    # imap_unordered streams outcomes as cells finish, so the
                    # ledger and the progress line track the campaign live;
                    # the index tag slots each result back into payload order.
                    for outcome in pool.imap_unordered(_invoke, jobs):
                        collect(outcome)
                    pool.close()
                    pool.join()
                except BaseException:
                    pool.terminate()
                    pool.join()
                    raise
            else:
                for job in jobs:
                    collect(_invoke(job))
        finally:
            if progress is not None:
                progress.close()

        if ledger is not None:
            ledger.finish()
        self.last_stats = DispatchStats(
            total=len(payloads),
            cache_hits=cache_hits,
            executed=len(pending),
            workers=self.workers,
            failed=len(failures),
            wall_seconds=time.time() - started,
        )
        if failures and self.on_error == "raise":
            raise DispatchError(failures)
        return results


def _ledger_fingerprint(ledger: Optional[CampaignLedger]) -> Optional[str]:
    if ledger is None:
        return None
    from repro.dispatch.fingerprint import source_fingerprint

    return source_fingerprint()


def _cell_label(task, task_name: str, payload: Any, index: int) -> str:
    describe = getattr(task, "describe", None)
    if describe is not None:
        try:
            label = describe(payload)
        except Exception:
            label = None
        if label:
            return str(label)
    return f"{task_name}[{index}]"


def _summarize(task, output: Any) -> Optional[Dict[str, Any]]:
    summarize = getattr(task, "summarize", None)
    if summarize is None:
        return None
    try:
        summary = summarize(output)
    except Exception:
        return None
    return summary if isinstance(summary, dict) else None


__all__ = ["CellFailure", "DispatchError", "DispatchStats", "Dispatcher"]
