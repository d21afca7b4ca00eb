"""The one way a CLI verb runs a grid of cells.

``figure``, ``ablation``, ``scenario`` and ``fuzz`` all build a list of
payloads and hand it to :func:`run_grid`, which runs them through
:class:`repro.dispatch.Dispatcher` — in this process without ``--workers``,
on a worker pool with it — and reports the accounting on stderr so stdout
stays byte-comparable between the two.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def open_cache(args: argparse.Namespace):
    """The dispatch result cache, or None under ``--no-cache``."""
    if args.no_cache:
        return None
    from repro.dispatch import ResultCache

    return ResultCache()


def campaign_ledger(args: argparse.Namespace, kind: str, meta: Optional[Dict[str, object]] = None):
    """The campaign ledger for one CLI campaign path (default ON).

    ``--ledger FILE`` pins the path; ``--no-ledger`` disables recording;
    otherwise an auto-named file lands under ``campaign-ledgers/``.
    """
    if args.no_ledger:
        return None
    from repro.dispatch.ledger import CampaignLedger, default_ledger_path

    path = Path(args.ledger) if args.ledger else default_ledger_path(kind)
    return CampaignLedger(path, meta=meta)


def run_grid(
    task: str,
    payloads: Sequence[object],
    args: argparse.Namespace,
    *,
    cache: bool,
    ledger: Optional[object] = None,
    announce: bool,
) -> Tuple[List[object], List[object]]:
    """Run ``payloads`` as cells of dispatch task ``task``.

    Returns ``(outcomes, crashed)``: the outcomes in payload order, and the
    :class:`~repro.dispatch.CellFailure` records among them — a cell that
    raises is tagged, not fatal, so the rest of the grid still runs.
    ``cache`` says whether this verb consults the result cache at all
    (``--no-cache`` still wins); ``announce`` puts the dispatch accounting
    on stderr.
    """
    from repro.dispatch import CellFailure, Dispatcher

    dispatcher = Dispatcher(
        workers=args.workers,
        cache=open_cache(args) if cache else None,
        ledger=ledger,
        on_error="collect",
    )
    outcomes = dispatcher.run(task, payloads)
    if announce:
        print(f"dispatch: {dispatcher.last_stats.summary()}", file=sys.stderr)
        if ledger is not None:
            print(
                f"campaign ledger: {ledger.path} (inspect with `repro campaign report {ledger.path}`)",
                file=sys.stderr,
            )
    return outcomes, [outcome for outcome in outcomes if isinstance(outcome, CellFailure)]


def exit_code(crashed: Sequence[object], failed: bool = False) -> int:
    """The verb's exit code; crashed cells are listed on stderr first."""
    if crashed:
        print(f"\n{len(crashed)} cell(s) crashed (campaign continued):", file=sys.stderr)
        for failure in crashed:
            print(f"  {failure}", file=sys.stderr)
    return 1 if crashed or failed else 0


__all__ = ["campaign_ledger", "exit_code", "open_cache", "run_grid"]
