"""The ``triage`` verbs: ``minimize`` one failing spec, replay the
regression ``corpus``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.grid import open_cache
from repro.cli.trace import SPEC_FILE_ERRORS, load_replay_spec


def cmd_minimize(args: argparse.Namespace) -> int:
    from repro.triage import Corpus, minimize_spec

    if args.max_attempts < 1:
        print("--max-attempts must be positive", file=sys.stderr)
        return 2
    try:
        spec = load_replay_spec(args.spec)
    except SPEC_FILE_ERRORS as error:
        print(f"cannot minimize {args.spec!r}: {error}", file=sys.stderr)
        return 2
    result = minimize_spec(
        spec, workers=args.workers, cache=open_cache(args), max_attempts=args.max_attempts
    )
    if not result.reproduced:
        print(
            f"{spec.name!r} ran clean — no failure signature to minimize "
            f"(fixed since the archive was written?)",
            file=sys.stderr,
        )
        return 1
    before, after = result.original, result.minimized
    print(
        f"minimized {spec.name!r}: {len(before.events)} -> {len(after.events)} event(s), "
        f"duration {before.duration:g}s -> {after.duration:g}s, f={before.f} -> {after.f} "
        f"({result.reductions} reductions in {result.attempts} runs)",
        file=sys.stderr,
    )
    print(f"signature: {result.signature.label()} ({result.signature.key()})", file=sys.stderr)
    blob = json.dumps(after.to_json_dict(), indent=2, sort_keys=True)
    if args.output:
        try:
            Path(args.output).write_text(blob + "\n", encoding="utf-8")
        except OSError as error:
            # Minutes of minimization may be behind us; dump the spec to
            # stdout rather than lose it to a bad output path.
            print(f"cannot write {args.output!r}: {error}", file=sys.stderr)
            print(blob)
            return 1
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(blob)
    if args.ingest:
        corpus = Corpus(Path(args.corpus_dir))
        try:
            entry, created = corpus.ingest(after, result.signature, source=args.spec)
        except ValueError as error:
            # A corrupt entry file anywhere in the corpus blocks dedup; the
            # minimized spec was already emitted above, so only the pinning
            # failed.
            print(f"cannot ingest into {corpus.root}: {error}", file=sys.stderr)
            return 1
        if created:
            print(f"pinned as corpus entry {corpus.path_for(entry.name)}", file=sys.stderr)
        else:
            print(
                f"signature already pinned by corpus entry {entry.name!r}; nothing ingested",
                file=sys.stderr,
            )
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.triage import Corpus, format_corpus, replay_corpus

    corpus = Corpus(Path(args.corpus_dir))
    if args.promote:
        try:
            entry = corpus.promote(args.promote)
        except (KeyError, ValueError) as error:
            # ValueError: a corrupt entry file anywhere in the corpus.
            print(str(error), file=sys.stderr)
            return 2
        print(f"promoted {entry.name!r} to a passing regression")
        return 0
    try:
        entries = corpus.entries()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not entries:
        print(f"corpus at {corpus.root} is empty; `repro fuzz` findings land here")
        return 0
    outcomes = replay_corpus(
        corpus, workers=args.workers, cache=open_cache(args), entries=entries
    )
    print(f"corpus replay: {len(outcomes)} entries from {corpus.root}")
    print(format_corpus(outcomes))
    broken = [outcome for outcome in outcomes if not outcome.ok]
    fixed = [outcome for outcome in outcomes if outcome.status == "fixed"]
    for outcome in fixed:
        print(
            f"\n{outcome.entry.name!r} no longer fails — its bug looks fixed; promote it "
            f"with `repro triage corpus --promote {outcome.entry.name}`",
            file=sys.stderr,
        )
    if broken:
        print(f"\n{len(broken)} corpus entries changed behaviour:", file=sys.stderr)
        for outcome in broken:
            observed = outcome.row()["observed"]
            print(
                f"  {outcome.entry.name}: {outcome.status} "
                f"(expected {outcome.entry.signature.key()}, observed {observed})",
                file=sys.stderr,
            )
        return 1
    if args.require_clean:
        # Open bugs stopped being "expected" once the seed corpus closed:
        # a still-failing entry is a liveness bug someone has to fix, and a
        # fixed-but-unpromoted entry is a regression guard not yet armed.
        unclean = [outcome for outcome in outcomes if outcome.status != "passing"]
        if unclean:
            print(f"\n--require-clean: {len(unclean)} entries are not passing regressions:", file=sys.stderr)
            for outcome in unclean:
                hint = (
                    f"promote it with `repro triage corpus --promote {outcome.entry.name}`"
                    if outcome.status == "fixed"
                    else "fix the underlying bug"
                )
                print(f"  {outcome.entry.name}: {outcome.status} — {hint}", file=sys.stderr)
            return 1
    if fixed:
        print(
            f"\ncorpus: {len(outcomes) - len(fixed)} of {len(outcomes)} entries behave "
            f"as pinned; {len(fixed)} now run clean and await promotion"
        )
    else:
        print(f"\ncorpus: all {len(outcomes)} entries behave as pinned")
    return 0
