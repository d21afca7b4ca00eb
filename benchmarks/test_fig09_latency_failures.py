"""Figure 9: throughput-latency of SpotLess and RCC with 1 or f failures."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig9-latency-failures"]


def run_fig09():
    """Collect the two panels of Figure 9 (1 failure and f failures)."""
    f = (128 - 1) // 3
    return FIGURE.run(faulty=(1, f))


def test_fig09_latency_under_failures(benchmark):
    """SpotLess serves requests with lower latency than RCC during failures."""
    rows = benchmark(run_fig09)
    print_figure("Figure 9 latency under failures", rows, FIGURE.columns)
    for faulty in {row["faulty"] for row in rows}:
        spotless = [r for r in rows if r["protocol"] == "spotless" and r["faulty"] == faulty]
        rcc = [r for r in rows if r["protocol"] == "rcc" and r["faulty"] == faulty]
        # At the saturating load SpotLess achieves at least RCC's throughput
        # with lower latency (the paper's "lower latency in all cases").
        top_s = max(spotless, key=lambda r: r["client_batches"])
        top_r = max(rcc, key=lambda r: r["client_batches"])
        assert top_s["throughput_txn_s"] >= top_r["throughput_txn_s"]
        assert top_s["latency_s"] <= top_r["latency_s"]
