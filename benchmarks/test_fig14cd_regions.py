"""Figure 14(c,d): impact of geo-distribution (1-4 regions), two batch sizes."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig14cd-regions"]


def test_fig14cd_geo_regions(benchmark):
    """More regions hurt everyone; bigger batches partially mitigate it."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 14(c,d) regions", rows, FIGURE.columns)

    def value(protocol, regions, batch):
        return next(
            r["throughput_txn_s"]
            for r in rows
            if r["protocol"] == protocol and r["regions"] == regions and r["batch_size"] == batch
        )

    for protocol in ("spotless", "rcc", "pbft", "hotstuff"):
        assert value(protocol, 4, 100) < value(protocol, 1, 100)
    # SpotLess stays ahead of RCC in every geo configuration.
    for regions in (1, 2, 3, 4):
        for batch in (100, 400):
            assert value("spotless", regions, batch) >= value("rcc", regions, batch)
    # Larger batches mitigate the bandwidth cost of geo-distribution.
    assert value("spotless", 4, 400) > value("spotless", 4, 100)
