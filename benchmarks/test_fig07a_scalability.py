"""Figure 7(a): throughput as a function of the number of replicas."""

from repro.bench.experiments import FIGURES
from conftest import print_figure, series_by

FIGURE = FIGURES["fig7a-scalability"]


def test_fig07a_scalability(benchmark):
    """SpotLess scales better than the primary-backup baselines."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 7(a) scalability", rows, FIGURE.columns)
    spotless = series_by(rows, "replicas", "spotless")
    pbft = series_by(rows, "replicas", "pbft")
    hotstuff = series_by(rows, "replicas", "hotstuff")
    rcc = series_by(rows, "replicas", "rcc")
    narwhal = series_by(rows, "replicas", "narwhal-hs")
    # At 128 replicas the paper's ordering holds: SpotLess > RCC > Narwhal-HS > Pbft > HotStuff.
    assert spotless[128] > rcc[128] > narwhal[128] > pbft[128] > hotstuff[128]
    # SpotLess outperforms Pbft by a large factor (430% in the paper) and
    # HotStuff by well over an order of magnitude (3803% in the paper).
    assert spotless[128] > 4 * pbft[128]
    assert spotless[128] > 15 * hotstuff[128]
    # Pbft degrades steeply with scale while SpotLess degrades gracefully.
    assert pbft[16] / pbft[128] > 4
    assert spotless[16] / spotless[128] < 2
