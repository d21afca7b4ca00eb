"""The bench verbs: ``list``, ``complexity``, ``figure``, ``ablation``,
``cluster`` and ``validate``."""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from repro.analysis.report import format_table
from repro.bench.ablations import ABLATIONS
from repro.bench.experiments import FIGURES, Experiment
from repro.cli.grid import campaign_ledger, exit_code, run_grid


def cmd_list(args: argparse.Namespace) -> int:
    for title, table in (("figures", FIGURES), ("ablations", ABLATIONS)):
        print(f"{title}:")
        for name, experiment in table.items():
            print(f"  {name:26} {experiment.paper}")
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import format_complexity_table

    print(format_complexity_table())
    return 0


def _given(value: object) -> bool:
    """Whether an optional flag was passed (an empty ``nargs="*"`` list is not)."""
    return value is not None and value != []


def _cmd_named(table: Dict[str, Experiment], task: str, args: argparse.Namespace) -> int:
    """Run one named experiment, or ``all`` of them, as the cells of one grid."""
    if args.name == "all":
        names = list(table)
    elif args.name in table:
        names = [args.name]
    else:
        known = ", ".join(sorted(table))
        print(f"unknown name {args.name!r}; choose one of: {known}", file=sys.stderr)
        return 2
    # An experiment-specific flag is an error anywhere but on the experiments
    # whose registry row accepts it — never silently dropped.
    for flag in sorted({flag for experiment in table.values() for flag in experiment.cli_kwargs}):
        takers = [name for name, experiment in table.items() if flag in experiment.cli_kwargs]
        if _given(getattr(args, flag)) and not set(names) <= set(takers):
            print(
                f"--{flag} is {task}-specific (only {', '.join(takers)} takes it); drop it",
                file=sys.stderr,
            )
            return 2
    payloads = [
        {
            "name": name,
            "kwargs": {
                keyword: getattr(args, flag)
                for flag, keyword in table[name].cli_kwargs.items()
                if _given(getattr(args, flag))
            },
        }
        for name in names
    ]
    # `all` is a campaign (many cells, worth a durable record and the result
    # cache); so is anything the user shards with --workers or records with
    # --ledger.  A bare named run just runs.
    dispatched = args.name == "all" or args.workers is not None or bool(args.ledger)
    ledger = campaign_ledger(args, task) if args.name == "all" or args.ledger else None
    outcomes, crashed = run_grid(
        task, payloads, args, cache=dispatched, ledger=ledger, announce=dispatched
    )
    failed = {failure.index: failure for failure in crashed}
    for index, (name, rows) in enumerate(zip(names, outcomes)):
        if index:
            print()
        print(table[name].paper)
        if index in failed:
            print(f"  FAILED: {failed[index].error_type}: {failed[index].message}")
        else:
            print(format_table(rows, table[name].columns))
    return exit_code(crashed)


def cmd_figure(args: argparse.Namespace) -> int:
    return _cmd_named(FIGURES, "figure", args)


def cmd_ablation(args: argparse.Namespace) -> int:
    return _cmd_named(ABLATIONS, "ablation", args)


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.bench.cluster import SimulatedCluster

    cluster = SimulatedCluster.for_protocol(
        args.protocol,
        num_replicas=args.replicas,
        batch_size=args.batch_size,
        clients=args.clients,
        outstanding_per_client=args.outstanding,
        seed=args.seed,
    )
    result = cluster.run(duration=args.duration, warmup=args.warmup)
    print(
        f"{args.protocol} with n={args.replicas}, batch={args.batch_size}, "
        f"{args.clients} clients x {args.outstanding} outstanding:"
    )
    print(f"  {result.summary()}")
    print(f"  messages sent: {result.messages_sent:,.0f}, bytes sent: {result.bytes_sent:,.0f}")
    cluster.assert_no_divergence()
    print("  non-divergence check: ok")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import cross_validate_protocols, validation_report

    points = cross_validate_protocols(num_replicas=args.replicas, duration=args.duration)
    report = validation_report(points)
    print(format_table(report["rows"], ["protocol", "replicas", "simulated_txn_s", "model_txn_s"]))
    print(f"simulator ranking: {' > '.join(report['simulated_ranking'])}")
    print(f"model ranking:     {' > '.join(report['model_ranking'])}")
    print(f"pairwise rank agreement: {report['rank_agreement']:.2f}")
    return 0
