"""Figure 7(c): throughput-latency trade-off at 128 replicas."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig7c-throughput-latency"]


def test_fig07c_throughput_latency(benchmark):
    """SpotLess reaches higher throughput than RCC at comparable or lower latency."""
    rows = benchmark(FIGURE.run)
    print_figure(
        "Figure 7(c) throughput-latency",
        rows,
        FIGURE.columns,
    )
    spotless = [r for r in rows if r["protocol"] == "spotless"]
    rcc = [r for r in rows if r["protocol"] == "rcc"]
    # Peak throughput: SpotLess above RCC (by up to 23% in the paper).
    assert max(r["throughput_txn_s"] for r in spotless) > max(r["throughput_txn_s"] for r in rcc)
    # At the highest offered load, SpotLess's latency is at or below RCC's
    # (the paper reports up to 32% lower latency).
    top_spotless = max(spotless, key=lambda r: r["client_batches"])
    top_rcc = max(rcc, key=lambda r: r["client_batches"])
    assert top_spotless["latency_s"] <= top_rcc["latency_s"] * 1.05
    # For the buffered concurrent protocols latency does not explode with load.
    first = min(spotless, key=lambda r: r["client_batches"])
    assert top_spotless["latency_s"] < first["latency_s"] * 5
