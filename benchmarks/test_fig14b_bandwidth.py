"""Figure 14(b): impact of the network bandwidth."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig14b-bandwidth"]


def test_fig14b_bandwidth(benchmark):
    """Bandwidth-bound protocols suffer at 500 Mbit/s; Narwhal-HS barely moves."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 14(b) bandwidth", rows, FIGURE.columns)
    spotless = series_by(rows, "bandwidth_mbit", "spotless")
    pbft = series_by(rows, "bandwidth_mbit", "pbft")
    narwhal = series_by(rows, "bandwidth_mbit", "narwhal-hs")
    assert spotless[500] < spotless[4000]
    assert pbft[500] < pbft[4000]
    # Narwhal-HS is compute bound, so bandwidth barely affects it (paper's
    # observation in Section 6.4).
    assert narwhal[500] >= narwhal[4000] * 0.95
    # SpotLess maintains a higher performance than RCC at every bandwidth.
    rcc = series_by(rows, "bandwidth_mbit", "rcc")
    for mbit in spotless:
        assert spotless[mbit] >= rcc[mbit]
