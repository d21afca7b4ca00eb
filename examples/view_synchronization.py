"""Rapid View Synchronization in action: recovering from a network partition.

A four-replica SpotLess cluster runs normally until one replica is cut off
from the rest of the network.  While it is isolated the other three keep
committing (they still form an n − f quorum); when the partition heals the
lagging replica catches up using the two RVS mechanisms of Section 3.4:

* the **f + 1 higher-view skip** — observing f + 1 Sync messages from views
  ahead of its own lets it jump straight to the group's view;
* **Υ retransmission requests and Ask-recovery** — it asks the others to
  resend their Sync messages and the full proposals it missed, so it can
  conditionally prepare (and execute) the chain it was absent for.

The script prints the view lag of the isolated replica over time for both
Rapid View Synchronization and the GST-style pacemaker ablation
(``repro.bench.ablations.GstPacemakerReplica``), which has to walk the
missed views one timeout at a time.

Run with::

    python examples/view_synchronization.py
"""

from __future__ import annotations

from repro.bench.ablations import GstPacemakerReplica
from repro.bench.cluster import SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.core.node import SpotLessReplica
from repro.faults.injector import FaultEvent, FaultInjector

NUM_REPLICAS = 4
ISOLATED = 3
PARTITION_START = 0.2
PARTITION_END = 0.8
RUN_UNTIL = 2.0
SAMPLE_EVERY = 0.2


def max_view(cluster: SimulatedCluster, replica_id: int) -> int:
    replica = cluster.replicas[replica_id]
    return max(instance.current_view for instance in replica.instances.values())


def run(replica_class: type) -> list[tuple[float, int]]:
    """Run one cluster of ``replica_class`` and sample the isolated replica's view lag over time."""
    config = SpotLessConfig(num_replicas=NUM_REPLICAS, num_instances=1)
    cluster = SimulatedCluster.build(replica_class, config, clients=2, outstanding_per_client=4)
    others = tuple(replica for replica in range(NUM_REPLICAS) if replica != ISOLATED)
    FaultInjector(cluster).schedule(
        FaultEvent(
            kind="partition", at=PARTITION_START, until=PARTITION_END, groups=(others, (ISOLATED,))
        )
    )

    cluster.start()
    samples: list[tuple[float, int]] = []
    elapsed = 0.0
    while elapsed < RUN_UNTIL:
        cluster.simulator.run_for(SAMPLE_EVERY)
        elapsed += SAMPLE_EVERY
        lag = max_view(cluster, others[0]) - max_view(cluster, ISOLATED)
        samples.append((elapsed, lag))
    cluster.assert_no_divergence()
    return samples


def main() -> None:
    print(
        f"Replica {ISOLATED} partitioned from t={PARTITION_START}s to t={PARTITION_END}s; "
        f"view lag of the isolated replica over time\n"
    )
    rvs, gst = run(SpotLessReplica), run(GstPacemakerReplica)
    print(f"{'time (s)':>9}  {'RVS lag':>8}  {'GST-pacemaker lag':>18}")
    for (time, rvs_lag), (_, gst_lag) in zip(rvs, gst):
        marker = ""
        if PARTITION_START <= time <= PARTITION_END:
            marker = "  <- partitioned"
        print(f"{time:>9.1f}  {rvs_lag:>8}  {gst_lag:>18}{marker}")
    print(
        "\nWith Rapid View Synchronization the lag collapses to ~0 almost immediately"
        "\nafter the partition heals; the GST-style pacemaker must expire a timer per"
        "\nmissed view, so the lag drains slowly (or keeps growing within this window)."
    )


if __name__ == "__main__":
    main()
