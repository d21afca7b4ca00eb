"""Figure 13: throughput as a function of the number of concurrent instances."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig13-instances"]


def run_both_scales():
    """The paper plots 64- and 128-replica panels."""
    return FIGURE.run(replicas=(64,), instances=(1, 8, 16, 32, 64)) + FIGURE.run(
        replicas=(128,), instances=(1, 16, 32, 64, 128)
    )


def test_fig13_concurrent_instances(benchmark):
    """SpotLess keeps gaining from extra instances; RCC plateaus earlier."""
    rows = benchmark(run_both_scales)
    print_figure("Figure 13 concurrent instances", rows, FIGURE.columns)
    spotless = series_by([r for r in rows if r["instances"] <= 128], "instances", "spotless")
    rcc = series_by([r for r in rows if r["instances"] <= 128], "instances", "rcc")
    # Monotone growth with instances, peaking at m = n for SpotLess.
    assert spotless[1] < spotless[16] <= spotless[128]
    assert spotless[128] == max(spotless.values())
    # RCC's gain from 16 to n instances is small (its message-processing
    # bottleneck), while SpotLess still improves and ends up ahead.
    assert (rcc[128] - rcc[16]) / rcc[16] < 0.25
    assert spotless[128] > rcc[128]
