"""Parallel experiment orchestration: dispatcher, result cache, fuzzer.

Every grid-shaped workload in the reproduction — scenario matrices, figure
sweeps, ablations, fuzz campaigns — is a list of independent cells, each
deterministic in its own ``(spec, seed)``.  This package turns such a list
into a parallel, cached, resumable job:

* :class:`~repro.dispatch.dispatcher.Dispatcher` shards cells across a
  ``multiprocessing`` pool and collects results in submission order, so
  serial and parallel runs are byte-identical;
* :class:`~repro.dispatch.cache.ResultCache` content-addresses every cell
  by its canonical JSON payload plus a fingerprint of the source tree, so
  re-running an unchanged grid is near-instant;
* :func:`~repro.dispatch.fuzz.fuzz_matrix` composes randomized multi-fault
  scenarios from a seed; failing cells are archived as replayable JSON;
* :class:`~repro.dispatch.ledger.CampaignLedger` appends one JSONL record
  per campaign event (cell transitions, worker heartbeats) to a file that
  outlives the process, and :func:`~repro.dispatch.campaign.reduce_ledger`
  folds it back into a :class:`~repro.dispatch.campaign.CampaignManifest`
  — the ``repro campaign status|report|tail`` surface.
"""

from repro.dispatch.cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.dispatch.campaign import (
    CampaignManifest,
    format_event,
    format_report,
    format_status,
    reduce_ledger,
)
from repro.dispatch.dispatcher import CellFailure, DispatchError, DispatchStats, Dispatcher
from repro.dispatch.fingerprint import source_fingerprint
from repro.dispatch.fuzz import FUZZ_KINDS, MIN_FUZZ_DURATION, fuzz_matrix, fuzz_spec
from repro.dispatch.ledger import (
    HEARTBEAT_INTERVAL,
    LEDGER_FORMAT,
    CampaignLedger,
    append_record,
    default_ledger_path,
    read_ledger,
)
from repro.dispatch.tasks import DispatchTask, get_task, register_task

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT",
    "CampaignLedger",
    "CampaignManifest",
    "CellFailure",
    "DispatchError",
    "DispatchStats",
    "DispatchTask",
    "Dispatcher",
    "FUZZ_KINDS",
    "HEARTBEAT_INTERVAL",
    "LEDGER_FORMAT",
    "MIN_FUZZ_DURATION",
    "ResultCache",
    "append_record",
    "cache_key",
    "default_cache_dir",
    "default_ledger_path",
    "format_event",
    "format_report",
    "format_status",
    "fuzz_matrix",
    "fuzz_spec",
    "get_task",
    "read_ledger",
    "reduce_ledger",
    "register_task",
    "source_fingerprint",
]
