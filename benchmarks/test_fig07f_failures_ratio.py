"""Figure 7(f): impact of failures as a ratio of f (128 replicas)."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig7f-failure-ratio"]


def test_fig07f_failures_ratio(benchmark):
    """With all f replicas faulty, SpotLess retains most of its advantage."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 7(f) failure ratio", rows, FIGURE.columns)
    spotless = series_by(rows, "ratio", "spotless")
    rcc = series_by(rows, "ratio", "rcc")
    pbft = series_by(rows, "ratio", "pbft")
    # The paper reports a 41% throughput decrease for SpotLess with f
    # failures at 128 replicas; our measured decrease should be in the same
    # regime (between 25% and 60%).
    decrease = 1 - spotless[1.0] / spotless[0.0]
    assert 0.25 < decrease < 0.60
    # SpotLess stays ahead of RCC and Pbft at every failure ratio.
    for ratio in spotless:
        assert spotless[ratio] > rcc[ratio]
        assert spotless[ratio] > pbft[ratio]
