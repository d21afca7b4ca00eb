"""``tools/perf_pairs.py``: the gain rule judged on the benchmark's quartiles."""

import importlib.util
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
