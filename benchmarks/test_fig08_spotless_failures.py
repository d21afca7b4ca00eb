"""Figure 8: SpotLess under failures as a function of n and failure count."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig8-spotless-failures"]


def test_fig08_spotless_failures(benchmark):
    """Larger deployments are relatively less affected by the same failure count."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 8 SpotLess failures", rows, FIGURE.columns)
    by_n = {}
    for row in rows:
        by_n.setdefault(row["replicas"], {})[row["faulty"]] = row["throughput_txn_s"]
    # Throughput decreases in the failure count for every n.
    for n, series in by_n.items():
        assert series[max(series)] < series[0]
    # Relative impact of 10 failures is smaller at n=128 than at n=32
    # (the paper's "the larger the number of replicas, the smaller the
    # relative influence of faulty replicas").
    impact_32 = 1 - by_n[32][10] / by_n[32][0]
    impact_128 = 1 - by_n[128][10] / by_n[128][0]
    assert impact_128 < impact_32
