"""Figure 14(a): impact of computing power (CPU cores per replica)."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig14a-cpu"]


def test_fig14a_computing_power(benchmark):
    """Restricting CPU cores lowers the throughput of every protocol."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 14(a) computing power", rows, FIGURE.columns)
    for protocol in ("spotless", "rcc", "narwhal-hs"):
        series = series_by(rows, "cores", protocol)
        assert series[4] < series[16]
    spotless = series_by(rows, "cores", "spotless")
    rcc = series_by(rows, "cores", "rcc")
    for cores in spotless:
        assert spotless[cores] >= rcc[cores]
