"""Rapid View Synchronization under a crashed primary (§3.5, Figure 4).

A view whose primary is crashed ends on the n − f claim(∅) Syncs its live
replicas send once t_R expires; it does not wait out t_A as well.  SpotLess
at batch 10, 4 clients × 8 outstanding, seed 1, the highest f replica ids
crashed at t = 0, throughput read per 0.5 s window.  Measured (txn/s): n = 4
1,264 / 1,316 / 1,302, n = 7 430 / 484.  Waiting out t_A in every such view
gave 196 / 142 / 112 and 94 / 88, with t_A growing 50 → 170 ms at n = 4.
Before a replica kept its instances within a view of each other
(``SpotLessReplica._admit``) the same cells read 742 / 726 / 636 and
478 / 500: at n = 4 the instances whose primary is crashed no longer fall
behind the rest, while at n = 7 every view has two such instances and every
instance now waits for them.  Each cell takes under 1 s of host time.
"""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.faults.injector import FaultEvent, FaultInjector

WINDOW_S = 0.5

#: (n, crashed replicas, windows, floor in txn/s every window must reach)
CELLS = [
    pytest.param(4, (3,), 3, 500.0, id="n4-crash-r3"),
    pytest.param(7, (5, 6), 2, 350.0, id="n7-crash-r5-r6"),
]


def crashed_primary_windows(n, crashed, windows):
    """Confirmed txn/s per window, and the live replicas."""
    cluster = SimulatedCluster.for_protocol(
        "spotless", n, batch_size=10, clients=4, outstanding_per_client=8, seed=1
    )
    if crashed:
        FaultInjector(cluster).schedule(FaultEvent("crash", 0.0, replicas=crashed))
    cluster.start()
    rates, confirmed = [], 0
    for _ in range(windows):
        cluster.run_additional(WINDOW_S)
        total = sum(client.confirmed_transactions for client in cluster.clients)
        rates.append((total - confirmed) / WINDOW_S)
        confirmed = total
    cluster.assert_no_divergence()
    return rates, [r for r in cluster.replicas if r.node_id not in crashed]


@pytest.mark.parametrize("n, crashed, windows, floor", CELLS)
def test_a_crashed_primary_costs_t_r_not_a_growing_t_a(n, crashed, windows, floor):
    rates, live = crashed_primary_windows(n, crashed, windows)
    print(f"\nn = {n}, crashed {crashed}: txn/s per {WINDOW_S} s window {[round(r) for r in rates]}")
    assert min(rates) >= floor, rates
    if n == 4:
        # Every crashed-primary view ends on its failure-claim quorum, so t_A
        # never expires and only shrinks.
        for replica in live:
            for instance in replica.instances.values():
                assert instance._certifying_timeout.interval <= instance.config.certifying_timeout


#: Six windows: 3 s of the n = 4 cell, healthy and with replica 3 crashed.
RATIO_WINDOWS = 6


def test_a_crashed_primary_costs_a_steady_share_of_healthy_throughput():
    """The n = 4 cell keeps the same share of its healthy throughput for
    3 s: nothing that a crashed primary costs grows.  Measured (txn/s per
    0.5 s window): healthy 3,310–3,356, replica 3 crashed 1,264–1,318, a
    ratio of 0.382–0.395 in every window.  n = 7 with replicas 5 and 6
    crashed reads 0.136–0.155 of its healthy throughput: every view there
    has two crashed-primary instances and every instance waits for them
    (``SpotLessReplica._admit``); that cell is recorded, not asserted."""
    healthy, _ = crashed_primary_windows(4, (), RATIO_WINDOWS)
    degraded, _ = crashed_primary_windows(4, (3,), RATIO_WINDOWS)
    ratios = [d / h for d, h in zip(degraded, healthy)]
    print(f"\nn = 4 txn/s per {WINDOW_S} s window: healthy {[round(r) for r in healthy]},"
          f" replica 3 crashed {[round(r) for r in degraded]}, ratio {[round(r, 3) for r in ratios]}")
    assert min(ratios) >= 0.35, ratios
    for rates in (healthy, degraded):
        assert rates[-1] / rates[0] >= 0.9, rates
