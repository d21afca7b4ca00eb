"""The ``campaign`` verbs: read a campaign ledger back as ``status``,
``report`` or ``tail``."""

from __future__ import annotations

import argparse
import sys


def _read_campaign(path: str):
    """Read and reduce one ledger: ``(records, manifest)``, or None after
    saying on stderr why there is nothing to show."""
    from repro.dispatch import read_ledger, reduce_ledger

    try:
        records = read_ledger(path)
    except OSError as error:
        print(f"cannot read ledger {path!r}: {error}", file=sys.stderr)
        return None
    if not records:
        print(f"{path!r} holds no campaign records", file=sys.stderr)
        return None
    return records, reduce_ledger(records)


def cmd_status(args: argparse.Namespace) -> int:
    from repro.dispatch import format_status

    campaign = _read_campaign(args.ledger)
    if campaign is None:
        return 2
    print(format_status(campaign[1]))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.dispatch import format_report

    campaign = _read_campaign(args.ledger)
    if campaign is None:
        return 2
    records, manifest = campaign
    print(format_report(manifest, top=args.top))
    if args.trace is not None:
        from repro.obs import write_campaign_trace

        counts = write_campaign_trace(records, args.trace)
        print(
            f"wrote {args.trace}: {sum(counts.values())} trace events "
            f"(open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    import time

    from repro.dispatch import format_event, read_ledger

    campaign = _read_campaign(args.ledger)
    if campaign is None:
        return 2
    records = campaign[0]
    shown = records if args.lines <= 0 else records[-args.lines:]
    for record in shown:
        print(format_event(record))
    if not args.follow:
        return 0
    # Follow mode: poll for appended records until campaign-end (the reader
    # tolerates racing an in-flight append, so re-reading is safe).
    seen = len(records)
    try:
        while not any(record.get("event") == "campaign-end" for record in records):
            time.sleep(0.5)
            records = read_ledger(args.ledger)
            for record in records[seen:]:
                print(format_event(record), flush=True)
            seen = len(records)
    except KeyboardInterrupt:
        pass
    return 0
