"""Single-layer probes: short timing loops around one public entry point each.

The workloads say where a whole run spends its time; a probe says what one
call into one layer costs with nothing else running, so a change to that
layer can be sized before it is tried on a workload.  ``dispatch``, ``cli``
and ``obs`` get probes only: measured, they are under 1 % of anything a user
waits for, so no workload is built around them.

Probe values are raw host times (no bound is set on them); read them next to
``harness.calib_s`` of the same run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from workloads import REPO_ROOT, ScenarioCell, ScenarioRun

OUT_DIR = Path(__file__).resolve().parent / "out"


def _best(fn: Callable[[], float], repeats: int = 2) -> float:
    """Smallest of a few runs: a probe measures the code, not the neighbours."""
    return min(fn() for _ in range(repeats))


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _engine(count: int = 50_000) -> float:
    from repro.sim.engine import Simulator

    def null() -> None:
        pass

    def once() -> float:
        simulator = Simulator()
        start = time.perf_counter()
        for index in range(count):
            simulator.schedule_call(index * 1e-6, null)
        simulator.run()
        return time.perf_counter() - start

    return _best(once) / count * 1e9


def _network(rounds: int = 5_000, fanout: int = 6) -> float:
    from repro.sim.actor import Actor
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    class Null(Actor):
        def on_message(self, sender: int, payload: object) -> None:
            pass

    def once() -> float:
        simulator = Simulator()
        network = Network(simulator)
        actors = [Null(node, simulator, network) for node in range(fanout + 1)]
        receivers = tuple(range(1, fanout + 1))
        start = time.perf_counter()
        for _ in range(rounds):
            actors[0].broadcast(receivers, "payload", 256)
        simulator.run()
        return time.perf_counter() - start

    return _best(once) / (rounds * fanout) * 1e9


def _digest(count: int = 20_000) -> float:
    from repro.crypto.digest import digest_bytes

    values = [("propose", index, index % 7, b"\x01" * 32, (index, index + 1)) for index in range(count)]
    return _best(lambda: _timed(lambda: [digest_bytes(v) for v in values])) / count * 1e9


def _transactions(count: int) -> List[object]:
    from repro.workload.ycsb import YcsbWorkload

    return YcsbWorkload().transactions(0, count)


def _workload(count: int = 10_000) -> float:
    return _best(lambda: _timed(lambda: _transactions(count))) / count * 1e9


def _mempool(count: int = 10_000, batch: int = 8) -> float:
    from repro.runtime.mempool import Mempool

    def once() -> float:
        transactions = _transactions(count)
        for transaction in transactions:
            transaction.digest()  # memoised: time the pool, not the hash
        pool = Mempool()
        start = time.perf_counter()
        for transaction in transactions:
            pool.admit(transaction)
        while pool.take_batch(batch) is not None:
            pass
        return time.perf_counter() - start

    return _best(once) / count * 1e9


def _pipeline_and_ledger(batches: int = 1_000, batch: int = 8) -> Dict[str, float]:
    from repro.ledger.execution import ExecutionEngine
    from repro.ledger.kvtable import KeyValueTable
    from repro.ledger.ledger import Ledger
    from repro.runtime.mempool import Mempool
    from repro.runtime.pipeline import ExecutionPipeline

    def pipeline_once() -> float:
        transactions = _transactions(batches * batch)
        pool = Mempool()
        for transaction in transactions:
            pool.admit(transaction)
        pipeline = ExecutionPipeline(
            pool, ExecutionEngine(table=KeyValueTable(), ledger=Ledger()), "probe", quorum=3
        )
        groups = [
            tuple(t.digest() for t in transactions[i * batch:(i + 1) * batch]) for i in range(batches)
        ]
        start = time.perf_counter()
        for position, digests in enumerate(groups):
            pipeline.deliver(position, digests)  # deliver -> advance -> execute
        elapsed = time.perf_counter() - start
        if pipeline.executed_transactions != batches * batch:
            raise RuntimeError("pipeline probe did not execute every transaction")
        return elapsed

    def ledger_once() -> float:
        ledger = Ledger()
        digests = [tuple(bytes([i % 251]) * 32 for i in range(b, b + batch)) for b in range(batches)]
        start = time.perf_counter()
        for group in digests:
            ledger.append(group)
        if not ledger.verify_chain():
            raise RuntimeError("ledger probe built a broken chain")
        return time.perf_counter() - start

    return {
        "runtime.pipeline.probe_us_per_batch": _best(pipeline_once) / batches * 1e6,
        "ledger.probe_us_per_block": _best(ledger_once) / batches * 1e6,
    }


def _dispatch(scratch: Path, cells: int = 6) -> Dict[str, float]:
    from repro.dispatch import CampaignLedger, Dispatcher, ResultCache
    from repro.dispatch.fingerprint import source_fingerprint
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.spec import single_fault_spec

    fingerprint_s = _timed(source_fingerprint)
    specs = [single_fault_spec("pbft", "crash", f=1, duration=0.3, seed=seed) for seed in range(1, cells + 1)]
    run_scenario(specs[0])  # first-use imports are nobody's overhead
    direct = _best(lambda: _timed(lambda: [run_scenario(spec) for spec in specs]))

    def dispatcher(tag: str, workers: int) -> Dispatcher:
        root = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=scratch))  # empty cache: a cold run
        return Dispatcher(workers=workers, cache=ResultCache(root=root / "cache"),
                          ledger=CampaignLedger(root / "ledger.jsonl"), progress=False)

    warm: List[float] = []

    def cold_then_warm() -> float:
        serial = dispatcher("serial", 1)
        elapsed = _timed(lambda: serial.run("scenario", specs))
        warm.append(_timed(lambda: serial.run("scenario", specs)))
        return elapsed

    cold = _best(cold_then_warm)
    parallel = _timed(lambda: dispatcher("parallel", 2).run("scenario", specs))
    return {
        "dispatch.fingerprint_ms": fingerprint_s * 1e3,
        "dispatch.cold_overhead_ms_per_cell": (cold - direct) / cells * 1e3,
        "dispatch.warm_ms_per_cell": min(warm) / cells * 1e3,
        "dispatch.parallel_speedup_w2": cold / parallel,
    }


def _cli(scratch: Path) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_CACHE_DIR=str(scratch / "cli-cache"))

    def run(*args: str) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], env=env, cwd=scratch, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
        )
        return time.perf_counter() - start

    fuzz = ("-m", "repro", "fuzz", "--count", "3", "--seed", "5", "--duration", "0.15", "--workers", "1",
            "--ledger", str(scratch / "fuzz.jsonl"), "--archive-dir", str(scratch / "archive"),
            "--corpus-dir", str(scratch / "corpus"))
    import_s = min(run("-c", "import repro.cli") - run("-c", "pass") for _ in range(2))
    run(*fuzz)  # fills the cache
    return {"cli.import_s": import_s, "cli.warm_fuzz_s": run(*fuzz)}


def _flight() -> float:
    cell = ScenarioCell("probe", "pbft", "crash", 1, 0.4)

    def once(flight: bool) -> float:
        run = ScenarioRun(cell, seed=1, flight=flight)
        return _timed(run.runner.run)

    return _best(lambda: once(True)) / _best(lambda: once(False))


def run_probes() -> Dict[str, float]:
    """Every probe metric, by name."""
    # repro.runtime imported before repro.core trips an import cycle between
    # the two packages; loading core first is the order every entry point uses.
    import repro.core  # noqa: F401

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        return {
            "sim.engine.probe_ns_per_event": _engine(),
            "sim.network.probe_ns_per_msg": _network(),
            "crypto.probe_ns_per_digest": _digest(),
            "runtime.mempool.probe_ns_per_txn": _mempool(),
            **_pipeline_and_ledger(),
            "workload.probe_ns_per_txn": _workload(),
            **_dispatch(scratch),
            **_cli(scratch),
            "obs.flight_overhead_x": _flight(),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
