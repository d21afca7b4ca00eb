"""Figure 7(d): throughput for larger YCSB transaction sizes (128 replicas)."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig7d-transaction-size"]


def test_fig07d_transaction_size(benchmark):
    """Concurrent protocols sustain large transactions; Pbft collapses."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 7(d) transaction size", rows, FIGURE.columns)
    spotless = series_by(rows, "transaction_bytes", "spotless")
    rcc = series_by(rows, "transaction_bytes", "rcc")
    pbft = series_by(rows, "transaction_bytes", "pbft")
    # SpotLess and RCC retain at least ~40% of their small-transaction
    # throughput at 1600 B; Pbft loses over 90% (single-primary bandwidth).
    assert spotless[1600] > 0.35 * spotless[48]
    assert rcc[1600] > 0.35 * rcc[48]
    assert pbft[1600] < 0.1 * pbft[48]
    # SpotLess stays ahead of RCC across the sweep.
    for size in spotless:
        assert spotless[size] >= rcc[size]
