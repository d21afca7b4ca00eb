"""Figure 7(e): impact of 0-10 non-responsive replicas (128 replicas)."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig7e-failures"]


def test_fig07e_failures(benchmark):
    """SpotLess keeps the throughput lead under a handful of failures."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 7(e) failures", rows, FIGURE.columns)
    spotless = series_by(rows, "faulty", "spotless")
    rcc = series_by(rows, "faulty", "rcc")
    hotstuff = series_by(rows, "faulty", "hotstuff")
    # Throughput decreases with the number of non-responsive replicas.
    assert spotless[10] < spotless[0]
    # SpotLess remains above RCC and far above HotStuff for every failure count.
    for k in spotless:
        assert spotless[k] > rcc[k]
        assert spotless[k] > 5 * hotstuff[k]
    # The degradation with 10 failures stays moderate (well under half).
    assert spotless[10] > 0.6 * spotless[0]
