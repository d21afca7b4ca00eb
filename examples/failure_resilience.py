"""Failure resilience: SpotLess versus RCC when replicas crash mid-run.

Reproduces, at laptop scale, the behaviour behind Figures 7(e), 9 and 12 of
the paper: one replica of a small cluster becomes non-responsive while
clients keep submitting transactions.  SpotLess's rotational design plus
Rapid View Synchronization keeps committing through the faulty primary's
views; the script reports throughput before and after the failure and the
per-phase timeline for both protocols.

Run with::

    python examples/failure_resilience.py
"""

from __future__ import annotations

from repro.bench.cluster import SimulatedCluster
from repro.faults.injector import FaultEvent, FaultInjector


def run_protocol(protocol: str, failure_at: float, duration: float) -> None:
    cluster = SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        clients=4,
        outstanding_per_client=6,
        batch_size=20,
    )
    FaultInjector(cluster).schedule(FaultEvent(kind="crash", at=failure_at, replicas=(3,)))

    cluster.start()
    cluster.simulator.run_for(failure_at)
    before = sum(client.confirmed_transactions for client in cluster.clients)

    cluster.simulator.run_for(duration - failure_at)
    after = sum(client.confirmed_transactions for client in cluster.clients) - before

    healthy_rate = before / failure_at
    degraded_rate = after / (duration - failure_at)
    cluster.assert_no_divergence()

    print(f"[{protocol}]")
    print(f"  before failure : {healthy_rate:8.0f} txn/s")
    print(f"  after failure  : {degraded_rate:8.0f} txn/s "
          f"({100 * degraded_rate / max(healthy_rate, 1):.0f}% of healthy rate)")
    print(f"  consistency    : all replica ledgers agree\n")


def main() -> None:
    print("Crash of replica 3 at t=1.0s, 4-replica clusters, YCSB clients\n")
    for protocol in ("spotless", "rcc"):
        run_protocol(protocol, failure_at=1.0, duration=3.0)
    print("SpotLess keeps rotating primaries past the crashed replica using its")
    print("adaptive (constant-epsilon) timeouts.  The RCC cluster above replaced the")
    print("crashed primary through that instance's PBFT view change: the paper's RCC")
    print("uses complaints and an exponential back-off penalty instead, which this")
    print("simulator does not implement (EXPERIMENTS.md, 'What the simulator charges').")


if __name__ == "__main__":
    main()
