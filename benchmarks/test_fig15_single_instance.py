"""Figure 15: single-instance SpotLess versus HotStuff under failures."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig15-single-instance"]


def test_fig15_single_instance(benchmark):
    """Single-instance SpotLess beats HotStuff thanks to cheaper signatures."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 15 single instance", rows, FIGURE.columns)
    spotless = series_by(rows, "ratio", "spotless")
    hotstuff = series_by(rows, "ratio", "hotstuff")
    for ratio in spotless:
        # SpotLess's MAC-based votes beat HotStuff's threshold-signature
        # emulation at every failure ratio (the paper's Figure 15 claim).
        assert spotless[ratio] > hotstuff[ratio]
    # Failures hurt both single-instance protocols substantially.
    assert spotless[1.0] < spotless[0.0]
    assert hotstuff[1.0] < hotstuff[0.0]
