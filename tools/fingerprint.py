"""The "same behaviour" contract: record a fixed cell set, compare two records.

    PYTHONPATH=src python tools/fingerprint.py record after.json --workers 2
    PYTHONPATH=/path/to/parent/src python tools/fingerprint.py record before.json --workers 2
    python tools/fingerprint.py compare before.json after.json

``record`` runs every cell of one named set through ``Dispatcher.run`` (so
it is parallel with ``--workers`` and served from the result cache unless
``--no-cache``) with the ``repro`` package found on ``PYTHONPATH``, which is
how one copy of this tool records two source trees.  The cell set is the
smoke matrix at seeds 1-3, every fault kind x every protocol at f = 1 and
f = 2 (seed 1), ``fuzz_matrix(50, seed=1)``, and one cell per ablation of
``repro.bench.ablations.ABLATIONS`` (each runs the paper's SpotLess against one
ablation variant: Example 3.6's ``TwoViewStore``, ``GstPacemakerReplica``,
``BackoffReplica``, ``ClientBoundReplica``, and the fast path off).
Per scenario cell it keeps the processed events, messages, bytes, dropped and
rewritten messages, the confirmed count, the summary digest, violations,
stragglers, and per replica the liveness counters, the state digest and the
checkpoint fold (frontier, stable position, rolling execution digest), plus
``json``: a short sha256 of the result's archived form (its canonical
``to_json_dict()``), so a change to how a spec or result encodes shows too; per
ablation cell it keeps the rows ``repro ablation NAME`` prints.  Each script of
the recorded tree's ``examples/`` is one more cell: it runs against that tree's
``src`` with ``PYTHONHASHSEED=0``, and the cell keeps its exit code and a short
sha256 of its stdout.

``compare A B`` prints every cell whose fields differ (and cells only one
record has), grouped by protocol (an example cell is named by its script),
then the cell count and one line per protocol that counts its differing cells
by the set of fields they differ in (``rcc: 36 × {state}``), and exits 1 on
any difference, 0 when the records agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Sequence

FORMAT = 4
TASK = "fingerprint-cell"
EXAMPLE_TASK = "fingerprint-example"
# Scalars are printed old -> new on a difference; the rest only by name.
SCALARS = ("events", "messages", "bytes", "dropped", "rewritten", "confirmed", "summary", "exit")
FIELDS = SCALARS + ("violations", "stragglers", "counters", "state", "checkpoints", "json", "rows", "stdout")


def cell_specs() -> List[Any]:
    """The named cell set, deduplicated by spec name, in a fixed order."""
    from repro.dispatch.fuzz import fuzz_matrix
    from repro.scenarios.spec import FAULT_KINDS, PROTOCOLS, single_fault_spec, smoke_matrix

    specs = [spec for seed in (1, 2, 3) for spec in smoke_matrix(seed=seed)]
    specs += [
        single_fault_spec(protocol, fault, f=f, duration=0.4, seed=1)
        for protocol in PROTOCOLS
        for fault in FAULT_KINDS
        for f in (1, 2)
    ]
    specs += fuzz_matrix(50, seed=1)
    unique: Dict[str, Any] = {}
    for spec in specs:
        unique.setdefault(spec.name, spec)
    return list(unique.values())


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one spec and keep the fields the contract compares."""
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.spec import ScenarioSpec

    runner = ScenarioRunner(ScenarioSpec.from_json_dict(payload["spec"]))
    result = runner.run()
    cluster = runner.cluster

    def counter(name: str) -> int:
        return cluster.metrics.counter(f"network.{name}").value

    return {
        "protocol": result.spec.protocol,
        "events": cluster.simulator.processed_events,
        "messages": counter("messages_sent"),
        "bytes": counter("bytes_sent"),
        "dropped": counter("messages_dropped"),
        "rewritten": counter("messages_rewritten"),
        "confirmed": result.confirmed_transactions,
        "summary": result.summary_digest(),
        "violations": [str(violation) for violation in result.violations],
        "stragglers": list(result.stragglers),
        "counters": [dict(replica.liveness_counters()) for replica in cluster.replicas],
        "state": [replica.state_digest().hex() for replica in cluster.replicas],
        "checkpoints": [
            [
                replica.checkpoints.frontier,
                replica.checkpoints.stable_position(),
                replica.checkpoints.rolling.hex(),
            ]
            for replica in cluster.replicas
        ],
        "json": hashlib.sha256(
            json.dumps(result.to_json_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:16],
    }


def _examples_dir() -> Path:
    """``examples/`` of the tree whose ``repro`` package is imported."""
    import repro

    return Path(repro.__file__).resolve().parent.parent.parent / "examples"


def run_example(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one example script of the recorded tree and hash its stdout."""
    examples = _examples_dir()
    done = subprocess.run(
        [sys.executable, str(examples / payload["example"])],
        cwd=examples.parent,
        env=dict(os.environ, PYTHONPATH=str(examples.parent / "src"), PYTHONHASHSEED="0"),
        capture_output=True,
        check=False,
    )
    return {
        "protocol": "example",
        "exit": done.returncode,
        "stdout": hashlib.sha256(done.stdout).hexdigest()[:16],
    }


def _register() -> None:
    from repro.dispatch.tasks import DispatchTask, register_task

    def identity(value: Any) -> Any:
        return value

    register_task(
        DispatchTask(
            name=TASK,
            run=run_cell,
            payload_json=identity,
            encode=identity,
            decode=identity,
            describe=lambda payload: payload["spec"]["name"],
        )
    )
    register_task(
        DispatchTask(
            name=EXAMPLE_TASK,
            run=run_example,
            payload_json=identity,
            encode=identity,
            decode=identity,
            describe=lambda payload: payload["example"],
        )
    )


def record(out: Path, workers: int, use_cache: bool) -> int:
    from repro.bench.ablations import ABLATIONS
    from repro.dispatch.cache import ResultCache
    from repro.dispatch.dispatcher import Dispatcher

    _register()
    specs = cell_specs()
    payloads = [{"format": FORMAT, "spec": spec.to_json_dict()} for spec in specs]
    dispatcher = Dispatcher(workers=workers, cache=ResultCache() if use_cache else None)
    results = dispatcher.run(TASK, payloads)
    cells = {spec.name: result for spec, result in zip(specs, results)}
    scenario_stats = dispatcher.last_stats.summary()
    # The task `repro ablation NAME` runs, at the ablation's default arguments.
    names = sorted(ABLATIONS)
    rows = dispatcher.run("ablation", [{"name": name} for name in names])
    for name, table in zip(names, rows):
        cells[f"ablation:{name}"] = {"protocol": "spotless", "rows": table}
    ablation_stats = dispatcher.last_stats.summary()
    # The script's text is in the payload, so an edited example is re-run.
    scripts = sorted(_examples_dir().glob("*.py"))
    outputs = dispatcher.run(
        EXAMPLE_TASK,
        [
            {"format": FORMAT, "example": script.name, "script": hashlib.sha256(script.read_bytes()).hexdigest()}
            for script in scripts
        ],
    )
    for script, output in zip(scripts, outputs):
        cells[f"example:{script.name}"] = output
    out.write_text(json.dumps({"format": FORMAT, "cells": cells}, indent=1, sort_keys=True) + "\n")
    print(
        f"{len(cells)} cells -> {out} (scenarios: {scenario_stats}; ablations: {ablation_stats}; "
        f"examples: {dispatcher.last_stats.summary()})"
    )
    return 0


def compare(first: Path, second: Path) -> int:
    a = json.loads(first.read_text())["cells"]
    b = json.loads(second.read_text())["cells"]
    by_protocol: Dict[str, List[str]] = {}
    # Protocol -> the set of differing fields -> how many cells differ in it.
    field_sets: Dict[str, Counter] = {}
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            line = f"{name}: only in {first if name in a else second}"
            fields = "only in one record"
        else:
            moved = [field for field in FIELDS if a[name].get(field) != b[name].get(field)]
            if not moved:
                continue
            line = f"{name}: " + "; ".join(
                f"{field} {a[name].get(field)!r} -> {b[name].get(field)!r}" if field in SCALARS else field
                for field in moved
            )
            fields = ", ".join(moved)
        protocol = (a.get(name) or b.get(name)).get("protocol", "?")
        by_protocol.setdefault(protocol, []).append(line)
        field_sets.setdefault(protocol, Counter())[fields] += 1
    for protocol, lines in sorted(by_protocol.items()):
        print(f"[{protocol}] {len(lines)} differing cell(s)")
        for line in lines:
            print(f"  {line}")
    differing = sum(len(lines) for lines in by_protocol.values())
    print(f"{len(set(a) | set(b))} cells, {differing} differ")
    for protocol, counts in sorted(field_sets.items()):
        print(f"{protocol}: " + ", ".join(f"{count} × {{{fields}}}" for fields, count in counts.most_common()))
    return 1 if differing else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    rec = verbs.add_parser("record", help="run the cell set and write its fingerprint")
    rec.add_argument("out", type=Path)
    rec.add_argument("--workers", type=int, default=1)
    rec.add_argument("--no-cache", action="store_true")
    cmp_ = verbs.add_parser("compare", help="diff two fingerprints; exit 1 on any difference")
    cmp_.add_argument("first", type=Path)
    cmp_.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.verb == "record":
        return record(args.out, args.workers, not args.no_cache)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
