"""Figure 11: SpotLess throughput under Byzantine attack scenarios A1-A4."""

from repro.bench.experiments import FIGURES
from conftest import print_figure

FIGURE = FIGURES["fig11-byzantine"]


def test_fig11_byzantine_attacks(benchmark):
    """Attacks A2-A4 are mitigated by Ask-recovery and RVS; A1 costs the most."""
    rows = benchmark(FIGURE.run)
    print_figure("Figure 11 Byzantine attacks", rows, FIGURE.columns)
    spotless = [r for r in rows if r["protocol"] == "spotless"]
    by_attack = {}
    for row in spotless:
        by_attack.setdefault(row["attack"], {})[row["faulty"]] = row["throughput_txn_s"]
    max_faulty = max(by_attack["A1"])
    # Non-responsive replicas (A1) hurt at least as much as the active attacks,
    # because timeouts are the only way to pass a silent primary's view.
    for attack in ("A2", "A3", "A4"):
        assert by_attack[attack][max_faulty] >= by_attack["A1"][max_faulty] * 0.95
    # Every attack still leaves the bulk of the throughput intact.
    for attack, series in by_attack.items():
        assert series[max_faulty] > 0.5 * series[0]
