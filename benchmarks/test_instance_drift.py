"""SpotLess's instances stay in step over a long run (§4–5).

View v executes only once every one of the m concurrent instances has
committed through v, so an instance that runs ahead only makes its own
transactions wait longer.  A replica therefore lets an instance enter view
v + 1 only once every instance there has entered view v.  Without that rule
link jitter random-walks the instances' view clocks apart and throughput
decays with the run's length: at batch 10, 16 clients × 2 outstanding, 0.5 s
windows, it fell 2,934 → 1,174 txn/s over 6 s at n = 4, seed 1 (last / first
0.40, worst skew 16 views), 3,090 → 1,494 at seed 2 (0.48, 14 views) and
2,936 → 1,996 over 2 s at n = 7 (0.68, 6 views).  With the rule (txn/s):
n = 4 seed 1 3,322 → 3,328, seed 2 3,336 → 3,320, n = 7 3,116 → 3,180, worst
skew 1 in all three.  "Skew" is max − min of a replica's instance views,
read at every window's end at every replica.  An n = 4 seed takes about 5 s
of host time, the n = 7 cell about 5 s.
"""

import pytest

from repro.bench.cluster import SimulatedCluster

WINDOW_S = 0.5

#: (n, seed, windows)
CELLS = [
    pytest.param(4, 1, 12, id="n4-s1-6s"),
    pytest.param(4, 2, 12, id="n4-s2-6s"),
    pytest.param(7, 1, 4, id="n7-s1-2s"),
]


def drift_windows(n, seed, windows):
    """Confirmed txn/s per window, and the largest instance skew seen."""
    cluster = SimulatedCluster.for_protocol(
        "spotless", n, batch_size=10, clients=16, outstanding_per_client=2, seed=seed
    )
    cluster.start()
    rates, confirmed, skew = [], 0, 0
    for _ in range(windows):
        cluster.run_additional(WINDOW_S)
        total = sum(client.confirmed_transactions for client in cluster.clients)
        rates.append((total - confirmed) / WINDOW_S)
        confirmed = total
        for replica in cluster.replicas:
            views = replica.instance_views().values()
            skew = max(skew, max(views) - min(views))
    cluster.assert_no_divergence()
    return rates, skew


@pytest.mark.parametrize("n, seed, windows", CELLS)
def test_throughput_does_not_decay_as_instances_drift(n, seed, windows):
    rates, skew = drift_windows(n, seed, windows)
    print(f"\nn = {n}, seed {seed}: txn/s per {WINDOW_S} s window {[round(r) for r in rates]}, worst skew {skew}")
    assert rates[-1] / rates[0] >= 0.9, rates
    assert skew <= 1
