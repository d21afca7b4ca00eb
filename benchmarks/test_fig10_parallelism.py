"""Figure 10: throughput/latency vs the number of client batches per primary."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig10-parallelism"]


def test_fig10_parallel_processing(benchmark):
    """Both protocols need enough parallel client batches to fill the pipeline."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 10 parallelism", rows, FIGURE.columns)
    no_failure_spotless = [r for r in rows if r["protocol"] == "spotless" and r["faulty"] == 0]
    ordered = sorted(no_failure_spotless, key=lambda r: r["client_batches"])
    # Throughput grows with the offered client batches until saturation.
    assert ordered[0]["throughput_txn_s"] < ordered[-1]["throughput_txn_s"]
    # Under failures the achievable throughput drops for both protocols.
    f_rows_s = [r for r in rows if r["protocol"] == "spotless" and r["faulty"] not in (0,)]
    assert max(r["throughput_txn_s"] for r in f_rows_s) <= max(r["throughput_txn_s"] for r in no_failure_spotless)
