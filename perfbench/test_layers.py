"""Checks of the layer roll-up: ``python -m pytest perfbench/test_layers.py``
(or run the file directly).

The fixture is a real cProfile dump of one 0.12 s SpotLess crash scenario
(``ScenarioRunner.run``), small enough to check in.  The synthetic profiles
cover the shapes a real one only sometimes has: a built-in shared by two
layers, a stdlib chain, a call cycle outside the layers, and a root with no
caller.
"""

from __future__ import annotations

import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

FIXTURE = HERE / "fixtures" / "spotless_crash.pstats"


def test_package_mapping() -> None:
    root = "/anywhere/src/repro/"
    assert layers.layer_of(root + "sim/engine.py") == "sim.engine"
    assert layers.layer_of(root + "sim/network.py") == "sim.network"
    assert layers.layer_of(root + "sim/rng.py") == "sim.other"
    assert layers.layer_of(root + "core/instance.py") == "core"
    assert layers.layer_of(root + "protocols/pbft/core.py") == "protocols.pbft"
    assert layers.layer_of(root + "protocols/narwhal/replica.py") == "protocols.narwhal"
    assert layers.layer_of(root + "protocols/common.py") is None
    assert layers.layer_of(root + "bench/cluster.py") is None
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") is None
    assert layers.layer_of("~") is None
    every = {layers.layer_of(root + f"{name.replace('.', '/')}/x.py") for name in layers.LAYERS}
    assert every >= set(layers.LAYERS) - {"sim.engine", "sim.network", "pyrt"}


def test_fixture_time_is_conserved() -> None:
    stats = pstats.Stats(str(FIXTURE)).stats  # type: ignore[attr-defined]
    table = layers.rollup(stats)
    assert set(table) == set(layers.LAYERS)
    total = layers.total_self_time(stats)
    assert total > 0
    assert abs(sum(row["self_s"] for row in table.values()) - total) < 1e-9 * max(1.0, total)
    assert abs(sum(row["self_share"] for row in table.values()) - 1.0) < 1e-9
    assert sum(row["calls"] for row in table.values()) == layers.total_calls(stats)
    # A SpotLess scenario spends its time in core/, not in the catch-all.
    assert table["core"]["self_share"] > table["pyrt"]["self_share"]
    assert table["scenarios"]["self_s"] > 0 and table["faults"]["calls"] > 0


def _edge(calls: int, self_time: float) -> tuple:
    return (calls, calls, self_time, self_time)


def test_caller_edge_charging() -> None:
    core = ("/x/src/repro/core/node.py", 1, "handler")
    engine = ("/x/src/repro/sim/engine.py", 1, "run")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    sort = ("/usr/lib/python3.11/bisect.py", 1, "insort")
    compare = ("~", 0, "<built-in method builtins.len>")
    loop_a = ("/usr/lib/python3.11/json/encoder.py", 1, "a")
    loop_b = ("/usr/lib/python3.11/json/encoder.py", 2, "b")
    root = ("/bench/run.py", 1, "step")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        core: (10, 10, 2.0, 6.0, {root: _edge(10, 2.0)}),
        engine: (10, 10, 1.0, 3.0, {root: _edge(10, 1.0)}),
        # built-in shared by two layers: 3/4 of its self time came from core
        heappush: (40, 40, 0.4, 0.4, {core: _edge(30, 0.3), engine: _edge(10, 0.1)}),
        # stdlib chain: len <- insort <- core
        sort: (5, 5, 0.2, 0.3, {core: _edge(5, 0.2)}),
        compare: (50, 50, 0.1, 0.1, {sort: _edge(50, 0.1)}),
        # a cycle outside the layers, entered from the engine
        loop_a: (4, 2, 0.06, 0.1, {engine: _edge(2, 0.03), loop_b: _edge(2, 0.03)}),
        loop_b: (2, 2, 0.04, 0.05, {loop_a: _edge(2, 0.04)}),
    }
    table = layers.rollup(stats)
    assert abs(table["core"]["self_s"] - (2.0 + 0.3 + 0.2 + 0.1)) < 1e-12
    assert abs(table["pyrt"]["self_s"] - 0.5) < 0.05 + 1e-12  # root, plus at most the cut half of the cycle
    assert abs(sum(row["self_s"] for row in table.values()) - layers.total_self_time(stats)) < 1e-12
    assert table["core"]["calls"] == 10 and table["sim.engine"]["calls"] == 10
    assert table["pyrt"]["calls"] == 1 + 40 + 5 + 50 + 2 + 2


def test_zero_time_edges_fall_back_to_call_counts() -> None:
    core = ("/x/src/repro/core/node.py", 1, "handler")
    ledger = ("/x/src/repro/ledger/ledger.py", 1, "append")
    builtin = ("~", 0, "<built-in method builtins.isinstance>")
    stats = {
        core: (1, 1, 1.0, 1.0, {}),
        ledger: (1, 1, 1.0, 1.0, {}),
        builtin: (4, 4, 0.2, 0.2, {core: _edge(3, 0.0), ledger: _edge(1, 0.0)}),
    }
    table = layers.rollup(stats)
    assert abs(table["core"]["self_s"] - 1.15) < 1e-12
    assert abs(table["ledger"]["self_s"] - 1.05) < 1e-12


if __name__ == "__main__":
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            check()
            print(f"{name}: ok")
