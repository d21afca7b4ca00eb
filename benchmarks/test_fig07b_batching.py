"""Figure 7(b): impact of the client-transaction batch size (128 replicas)."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig7b-batching"]


def test_fig07b_batching(benchmark):
    """Bigger batches help every protocol; gains flatten after 100 txn/batch for Pbft."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 7(b) batching", rows, FIGURE.columns)
    for protocol in ("spotless", "rcc", "pbft", "hotstuff", "narwhal-hs"):
        series = series_by(rows, "batch_size", protocol)
        # Monotone non-decreasing in batch size.
        assert series[10] <= series[100] <= series[400]
    pbft = series_by(rows, "batch_size", "pbft")
    spotless = series_by(rows, "batch_size", "spotless")
    # Pbft's single-primary bandwidth bottleneck caps its batching gains,
    # while SpotLess keeps improving (the paper's justification for using
    # 100 txn/batch as the sweet spot).
    assert pbft[400] / pbft[100] < 1.5
    assert spotless[400] / spotless[100] > 1.5
