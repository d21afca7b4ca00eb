"""Figure 12: real-time throughput after injecting failures."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig12-timeline"]


def run_timelines():
    """Timelines for 1 failure and f failures, SpotLess and RCC."""
    f = (128 - 1) // 3
    return FIGURE.run(faulty_replicas=1) + FIGURE.run(faulty_replicas=f)


def test_fig12_failure_timeline(benchmark):
    """SpotLess's post-failure throughput is stable; RCC's fluctuates."""
    rows = benchmark(run_timelines)
    print_figure("Figure 12 timeline", rows, FIGURE.columns)

    def series(protocol, faulty):
        values = [r["throughput_txn_s"] for r in rows if r["protocol"] == protocol and r["faulty"] == faulty and r["time_s"] > 20]
        return values

    for faulty in {row["faulty"] for row in rows}:
        spotless = series("spotless", faulty)
        rcc = series("rcc", faulty)
        spread_spotless = (max(spotless) - min(spotless)) / max(spotless)
        spread_rcc = (max(rcc) - min(rcc)) / max(rcc)
        # RCC's exponential back-off produces much larger post-failure swings.
        assert spread_spotless < 0.2
        assert spread_rcc > 0.4
