"""``tools/perf_pairs.py``: the gain rule judged on the benchmark's quartiles."""

import importlib.util
import json
import statistics
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten parent runs.  Their IQR is 5.5 by the exclusive quartiles that
#: ``perfbench/run.py`` and ``perfbench/calib.py`` use, 4.5 by the inclusive
#: method, so a change whose median is 5 lower is beyond one and not the other.
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_quartiles_are_the_benchmarks_exclusive_ones():
    tool = _tool()
    assert tool.quartiles(PARENT) == tuple(statistics.quantiles(PARENT, n=4))
    assert tool.quartiles(PARENT) == (11.75, 14.5, 17.25)
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_inside_the_exclusive_iqr_is_not_met():
    tool = _tool()
    change = [value - 5.0 for value in PARENT]
    judgement = tool.judge(PARENT, change, lower_is_better=True)
    assert (judgement.change_wins, judgement.parent_wins) == (10, 0)
    assert not judgement.beyond_iqr
    assert judgement.verdict == "not met"


def test_a_gain_beyond_the_exclusive_iqr_is_met():
    tool = _tool()
    judgement = tool.judge(PARENT, [value - 6.0 for value in PARENT], lower_is_better=True)
    assert judgement.beyond_iqr
    assert judgement.verdict == "met"
    # The same distance the wrong way is no gain, and fewer than ten pairs
    # are not judged.
    assert tool.judge(PARENT, [value + 6.0 for value in PARENT], lower_is_better=True).verdict == "not met"
    assert tool.judge(PARENT[:9], [value - 6.0 for value in PARENT[:9]], True).verdict.startswith("not judged")


def test_worse_beyond_bound_follows_the_metric_direction():
    tool = _tool()
    lower = {"better": "lower", "bound": 0.25}
    higher = {"better": "higher", "bound": 0.05}
    assert tool.worse_beyond_bound(lower, 100.0, 124.0) == (1.24, False)
    assert tool.worse_beyond_bound(lower, 100.0, 126.0)[1]
    assert not tool.worse_beyond_bound(lower, 100.0, 50.0)[1]
    assert tool.worse_beyond_bound(higher, 100.0, 94.0)[1]
    assert not tool.worse_beyond_bound(higher, 100.0, 200.0)[1]
    assert tool.worse_beyond_bound(higher, 0.0, 0.0) == (1.0, False)


DECLARED = ["spotless_steady", "baselines_steady", "chaos_recovery", "openloop_rates"]


def test_workloads_named_expands_all_and_keeps_each_once_in_order():
    tool = _tool()
    assert tool.workloads_named(["spotless_steady"], DECLARED) == ["spotless_steady"]
    assert tool.workloads_named(["all"], DECLARED) == DECLARED
    assert tool.workloads_named(["chaos_recovery", "all"], DECLARED) == [
        "chaos_recovery", "spotless_steady", "baselines_steady", "openloop_rates"
    ]
    assert tool.workloads_named(["openloop_rates", "openloop_rates"], DECLARED) == ["openloop_rates"]
    try:
        tool.workloads_named(["spotless_steady", "nope"], DECLARED)
    except ValueError as error:
        assert "nope" in str(error)
    else:
        raise AssertionError("an unknown workload must be refused")


def test_an_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "run_side", lambda checkout, passthrough: 1 / 0)
    try:
        tool.main(["--parent", str(tmp_path), "--workload", "spotless_steady", "nope"])
    except SystemExit as exit:
        assert exit.code == 2
    else:
        raise AssertionError("argparse must exit")
    assert "nope" in capsys.readouterr().err


def test_each_summary_line_comes_from_its_own_workloads_pairs(tmp_path, monkeypatch, capsys):
    """The change halves the metric on one workload and leaves the other
    alone: the summary says so per workload."""
    tool = _tool()
    parent = tmp_path.resolve()
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [row["name"] for row in spec["end_to_end"]]
    runs = []

    def fake_run_side(checkout, passthrough):
        workload = passthrough[passthrough.index("--workload") + 1]
        runs.append((checkout == parent, workload))
        pair = (sum(1 for _, seen in runs if seen == workload) - 1) // 2
        value = 10.0 + pair % 3
        if checkout != parent and workload == "chaos_recovery":
            value /= 2.0
        return {"metrics": {name: {"value": value} for name in names}, "correct": True, "failed": 0}

    monkeypatch.setattr(tool, "run_side", fake_run_side)
    assert tool.main(["--parent", str(parent), "--workload", "chaos_recovery", "openloop_rates"]) == 0
    out = capsys.readouterr().out
    # Workload by workload, ten pairs each, alternating which side goes first.
    assert [workload for _, workload in runs] == ["chaos_recovery"] * 20 + ["openloop_rates"] * 20
    assert [is_parent for is_parent, _ in runs[:4]] == [True, False, False, True]
    summary = out[out.index("summary, seed 1"):].splitlines()[1:]
    assert len(summary) == 2
    assert summary[0].split()[:3] == ["chaos_recovery", "host_calib_ratio", "0.500"]
    assert "change wins 10/10" in summary[0] and "gain rule: met" in summary[0]
    assert summary[1].split()[:3] == ["openloop_rates", "host_calib_ratio", "1.000"]
    assert "change wins 0/10, parent wins 0/10, gain rule: not met" in summary[1]


def test_summary_line_reports_ratio_wins_and_verdict():
    tool = _tool()
    judgement = tool.judge(PARENT, [value - 6.0 for value in PARENT], lower_is_better=True)
    line = tool.summary_line("spotless_steady", "host_calib_ratio", judgement, 10)
    assert line.split()[:3] == ["spotless_steady", "host_calib_ratio", f"{8.5 / 14.5:.3f}"]
    assert line.endswith("change wins 10/10, parent wins 0/10, gain rule: met")
