"""Command-line interface for the SpotLess reproduction.

The CLI exposes the experiment harness without writing any Python::

    python -m repro list
    python -m repro complexity
    python -m repro figure fig7a-scalability --replicas 4 16 32
    python -m repro figure all --workers 4
    python -m repro ablation commit-rule
    python -m repro cluster --protocol spotless --replicas 4 --duration 2
    python -m repro scenario --matrix smoke
    python -m repro scenario --matrix full --workers 4 --seeds 1 2 3
    python -m repro scenario --protocol rcc --fault A3 --f 1 --duration 0.5
    python -m repro scenario --overload --protocol spotless
    python -m repro scenario --replay fuzz-failures/fuzz-1-17.json
    python -m repro scenario --protocol pbft --fault crash --counters
    python -m repro trace fuzz-1-42-min --output trace.json
    python -m repro figure offered-load --protocols spotless pbft
    python -m repro fuzz --count 50 --seed 1
    python -m repro campaign status campaign-ledgers/fuzz-1-20260808-120000-1234.jsonl
    python -m repro campaign report campaign-ledgers/fuzz-1-20260808-120000-1234.jsonl
    python -m repro triage minimize fuzz-failures/fuzz-1-42.json --ingest
    python -m repro triage corpus --workers 4
    python -m repro validate

``figure`` names are the keys of :data:`repro.bench.experiments.FIGURES`,
``ablation`` names those of :data:`repro.bench.ablations.ABLATIONS`.  Output
is the same aligned table the benchmark harness prints, so the numbers can
be compared directly against the corresponding figure in the paper —
EXPERIMENTS.md maps every CLI name to its figure.  Every grid-shaped command
runs its cells through :class:`repro.dispatch.Dispatcher`; ``--workers``
shards them across worker processes with a content-addressed result cache,
and serial and parallel runs print byte-identical tables.  Campaign-shaped
verbs (``fuzz``, ``scenario --matrix``, ``figure all``, ``ablation all``)
additionally append a JSONL campaign ledger under ``campaign-ledgers/``
(``--ledger FILE`` pins the path, ``--no-ledger`` disables it); the
``campaign`` verb family reads those files back.

This module holds the verb table and every flag; each verb's handler lives
in one module per verb family (:mod:`~repro.cli.bench`,
:mod:`~repro.cli.scenario`, :mod:`~repro.cli.triage`, :mod:`~repro.cli.trace`,
:mod:`~repro.cli.campaign`) that is imported only when its verb runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.bench.ablations import ABLATIONS
from repro.bench.experiments import FIGURES

#: One argparse argument: ``(names, add_argument keywords)``.
Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def flag(*names: str, **kwargs: Any) -> Flag:
    return names, kwargs


class Verb(NamedTuple):
    """One row of the verb table."""

    name: str
    help: str
    #: ``"module:function"`` under :mod:`repro.cli`, imported when the verb runs.
    handler: str = ""
    flags: Sequence[Flag] = ()
    #: A verb family has sub-verbs instead of a handler; ``usage`` is what it
    #: prints when none is named.
    subverbs: Mapping[str, "Verb"] = {}
    usage: str = ""


def _table(*verbs: Verb) -> Dict[str, Verb]:
    return {verb.name: verb for verb in verbs}


# ----------------------------------------------------------------------
# flags shared by several verbs, each declared once (help text per verb)
# ----------------------------------------------------------------------


def _dispatch_flags(workers_help: str, no_cache_help: str) -> List[Flag]:
    return [
        flag("--workers", type=int, help=workers_help),
        flag("--no-cache", action="store_true", help=no_cache_help),
    ]


def _ledger_flags(scope: str) -> List[Flag]:
    path_help = f"campaign ledger JSONL path ({scope}: default campaign-ledgers/<auto>.jsonl)"
    return [
        flag("--ledger", metavar="FILE", help=path_help),
        flag("--no-ledger", action="store_true", help="do not record a campaign ledger"),
    ]


def _corpus_dir(help: str) -> Flag:
    # A literal default (not repro.triage.DEFAULT_CORPUS_DIR) so building the
    # parser never pays for the triage imports.
    return flag("--corpus-dir", default=str(Path("fuzz-failures") / "corpus"), help=help)


def _archive_dir(help: str) -> Flag:
    return flag("--archive-dir", default="fuzz-failures", help=help)


def _no_flight(help: str) -> Flag:
    return flag("--no-flight", action="store_true", help=help)


_LEDGER_FILE = flag("ledger", help="campaign ledger JSONL file")

# ----------------------------------------------------------------------
# the verb table
# ----------------------------------------------------------------------

_FIGURE = Verb(
    "figure",
    "regenerate one figure of the evaluation",
    "bench:cmd_figure",
    [
        flag("name", help="figure name (see `repro list`), or `all` for every figure"),
        flag("--replicas", type=int, nargs="*", help="replica counts (fig7a only)"),
        flag("--faulty", type=int, help="failure count (fig12 only)"),
        flag("--protocols", nargs="*", help="protocol subset (offered-load only)"),
        *_dispatch_flags(
            "dispatch figures across N worker processes with the result cache",
            "skip the dispatch result cache",
        ),
        *_ledger_flags("with `all`"),
    ],
)

_ABLATION = Verb(
    "ablation",
    "run one design-choice ablation",
    "bench:cmd_ablation",
    [
        flag("name", help="ablation name (see `repro list`), or `all` for every ablation"),
        *_dispatch_flags(
            "dispatch ablations across N worker processes with the result cache",
            "skip the dispatch result cache",
        ),
        *_ledger_flags("with `all`"),
    ],
)

_CLUSTER = Verb(
    "cluster",
    "run a small message-level simulated cluster",
    "bench:cmd_cluster",
    [
        flag("--protocol", default="spotless", help="spotless, pbft, rcc, hotstuff, narwhal-hs"),
        flag("--replicas", type=int, default=4),
        flag("--batch-size", type=int, default=10),
        flag("--clients", type=int, default=4),
        flag("--outstanding", type=int, default=8),
        flag("--duration", type=float, default=1.0),
        flag("--warmup", type=float, default=0.0),
        flag("--seed", type=int, default=1),
    ],
)

_SCENARIO = Verb(
    "scenario",
    "run adversarial chaos scenarios with the invariant oracle attached",
    "scenario:cmd_scenario",
    [
        flag(
            "--matrix",
            choices=("smoke", "full"),
            help="run a predefined scenario matrix instead of a single scenario",
        ),
        flag(
            "--overload",
            action="store_true",
            help="run the overload-and-recover family (open-loop load + SLO oracle) "
            "instead of a fault scenario; --protocol narrows it to one protocol",
        ),
        flag("--protocol", help="spotless, pbft, rcc, hotstuff, narwhal-hs (default: spotless)"),
        flag("--fault", help="A1, A2, A3, A4, crash, partition, latency (default: A1)"),
        flag("--f", type=int, help="faulty replicas, cluster size is 3f + 1 (default: 1)"),
        flag("--duration", type=float, help="simulated seconds per scenario (default: 0.4)"),
        flag("--seed", type=int, help="single seed (default: 1)"),
        flag(
            "--seeds",
            type=int,
            nargs="+",
            help="run every scenario of the grid at each of these seeds (excludes --seed)",
        ),
        *_dispatch_flags(
            "shard scenarios across N worker processes (results stay in grid order)",
            "with --workers: always re-run cells instead of using the result cache",
        ),
        flag(
            "--replay",
            metavar="FILE",
            help="re-run one archived scenario spec (e.g. a failing fuzz cell) from JSON",
        ),
        flag(
            "--checkpoint-interval",
            type=int,
            help="recovery checkpoint interval K (0 disables checkpointing/state transfer)",
        ),
        flag(
            "--lenient-liveness",
            action="store_true",
            help="report post-heal stragglers as a column instead of failing the run",
        ),
        flag(
            "--trace",
            metavar="FILE",
            help="record the (single) scenario with a full tracer and write Perfetto "
            "trace JSON here (see also `repro trace`)",
        ),
        flag(
            "--counters",
            action="store_true",
            help="expand the liveness-counter summary into a per-replica breakdown",
        ),
        _no_flight(
            "disable the flight recorder (on by default; violations then archive "
            "no trailing trace window)"
        ),
        _archive_dir("directory that receives *-flight.json dumps of violating runs"),
        *_ledger_flags("with --matrix"),
    ],
)

_FUZZ = Verb(
    "fuzz",
    "run randomized multi-fault scenarios; archive failing specs for replay",
    "scenario:cmd_fuzz",
    [
        flag("--count", type=int, default=20, help="number of fuzz scenarios"),
        flag("--seed", type=int, default=1, help="master seed of the campaign"),
        flag("--duration", type=float, default=0.4, help="simulated seconds per scenario"),
        *_dispatch_flags(
            "shard scenarios across N worker processes (results stay in campaign order)",
            "with --workers: always re-run cells instead of using the result cache",
        ),
        _archive_dir("directory that receives the replayable JSON spec of every failing cell"),
        flag(
            "--no-minimize",
            action="store_true",
            help="archive failing cells raw instead of auto-minimizing them into the corpus",
        ),
        _corpus_dir("regression corpus directory that minimized findings are pinned into"),
        _no_flight("disable the flight recorder (failing cells then archive no trace window)"),
        *_ledger_flags("always on"),
    ],
)

_CAMPAIGN = Verb(
    "campaign",
    "inspect a campaign ledger: manifest, failure breakdown, event tail",
    usage="usage: repro campaign {status,report,tail} LEDGER",
    subverbs=_table(
        Verb(
            "status",
            "cell accounting (done/failed/cached/in-flight/pending), rate, ETA, workers",
            "campaign:cmd_status",
            [_LEDGER_FILE],
        ),
        Verb(
            "report",
            "full campaign report: failure signatures, slowest cells, worker utilization",
            "campaign:cmd_report",
            [
                _LEDGER_FILE,
                flag("--top", type=int, default=5, help="rows per breakdown section (default: 5)"),
                flag(
                    "--trace",
                    metavar="FILE",
                    help="also export the campaign timeline as Chrome trace-event JSON "
                    "(one track per worker, open in https://ui.perfetto.dev)",
                ),
            ],
        ),
        Verb(
            "tail",
            "print the last ledger events, one line each",
            "campaign:cmd_tail",
            [
                _LEDGER_FILE,
                flag(
                    "-n",
                    "--lines",
                    type=int,
                    default=20,
                    help="events to show (default: 20; 0 means all)",
                ),
                flag(
                    "--follow",
                    action="store_true",
                    help="keep polling for new events until campaign-end (Ctrl-C to stop)",
                ),
            ],
        ),
    ),
)

_TRACE = Verb(
    "trace",
    "record one scenario with the tracer and export a Perfetto timeline",
    "trace:cmd_trace",
    [
        flag(
            "target",
            nargs="?",
            help="spec JSON path (bare spec or fuzz archive) or bare corpus entry name",
        ),
        flag(
            "--output",
            default="trace.json",
            metavar="FILE",
            help="Chrome trace-event JSON output path (default: trace.json)",
        ),
        flag(
            "--timeseries",
            metavar="FILE",
            help="also export the sampled telemetry (CSV, or JSON when FILE ends in .json)",
        ),
        flag(
            "--telemetry-interval",
            type=float,
            help="telemetry sampling interval in simulated seconds "
            "(default: the spec's check interval)",
        ),
        _corpus_dir("corpus directory searched when the target is a bare entry name"),
        flag(
            "--from-dump",
            metavar="FILE",
            help="render an archived flight-recorder dump (fuzz archive or *-flight.json) "
            "instead of running a scenario",
        ),
    ],
)

_TRIAGE = Verb(
    "triage",
    "minimize failing scenarios and maintain the regression corpus",
    usage="usage: repro triage {minimize,corpus} ...",
    subverbs=_table(
        Verb(
            "minimize",
            "delta-debug one archived failing spec down to a minimal reproduction",
            "triage:cmd_minimize",
            [
                flag("spec", help="JSON file holding the failing spec (bare spec or fuzz archive)"),
                *_dispatch_flags(
                    "evaluate candidate reductions across N worker processes",
                    "always re-run candidates instead of using the result cache",
                ),
                flag(
                    "--max-attempts",
                    type=int,
                    default=256,
                    help="ceiling on candidate evaluations (default: 256)",
                ),
                flag("--output", metavar="FILE", help="write the minimized spec JSON here"),
                flag(
                    "--ingest",
                    action="store_true",
                    help="pin the minimized spec in the regression corpus (dedup by signature)",
                ),
                _corpus_dir("regression corpus directory used by --ingest"),
            ],
        ),
        Verb(
            "corpus",
            "replay every corpus entry and classify still-failing / fixed / signature-changed",
            "triage:cmd_corpus",
            [
                *_dispatch_flags(
                    "replay entries across N worker processes",
                    "always re-run entries instead of using the result cache",
                ),
                _corpus_dir("regression corpus directory to replay"),
                flag(
                    "--promote",
                    metavar="NAME",
                    help="flip one fixed entry to a passing regression instead of replaying",
                ),
                flag(
                    "--require-clean",
                    action="store_true",
                    help="fail if any entry is not a passing regression "
                    "(open bugs are no longer 'expected')",
                ),
            ],
        ),
    ),
)

VERBS: Dict[str, Verb] = _table(
    Verb("list", "list available figures and ablations", "bench:cmd_list"),
    Verb("complexity", "print the Figure 1 complexity table", "bench:cmd_complexity"),
    _FIGURE,
    _ABLATION,
    _CLUSTER,
    _SCENARIO,
    _FUZZ,
    _CAMPAIGN,
    _TRACE,
    _TRIAGE,
    Verb(
        "validate",
        "cross-validate the analytical model against the simulator",
        "bench:cmd_validate",
        [flag("--replicas", type=int, default=4), flag("--duration", type=float, default=1.0)],
    ),
)


def _add_verbs(parser: argparse.ArgumentParser, verbs: Mapping[str, Verb], dest: str) -> None:
    subparsers = parser.add_subparsers(dest=dest)
    for verb in verbs.values():
        verb_parser = subparsers.add_parser(verb.name, help=verb.help)
        for names, kwargs in verb.flags:
            verb_parser.add_argument(*names, **kwargs)
        if verb.subverbs:
            _add_verbs(verb_parser, verb.subverbs, f"{verb.name}_command")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpotLess (ICDE 2024) reproduction: experiments, ablations and simulated clusters.",
    )
    _add_verbs(parser, VERBS, "command")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    verb = VERBS[args.command]
    if verb.subverbs:
        chosen = getattr(args, f"{verb.name}_command")
        if chosen is None:
            print(verb.usage, file=sys.stderr)
            return 2
        verb = verb.subverbs[chosen]
    # The one place --workers is validated, for every verb that takes it;
    # 0 used to be silently coerced to one worker by the dispatcher.
    if getattr(args, "workers", None) is not None and args.workers < 1:
        print("--workers must be a positive integer", file=sys.stderr)
        return 2
    module, _, function = verb.handler.partition(":")
    return getattr(importlib.import_module(f"repro.cli.{module}"), function)(args)


__all__ = ["ABLATIONS", "FIGURES", "VERBS", "Verb", "build_parser", "main"]
