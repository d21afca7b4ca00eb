"""Tests for fault scheduling: apply/heal ordering and rule ownership."""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.faults.attacks import attack_by_name
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.sim.network import Partition


def make_cluster():
    config = SpotLessConfig(num_replicas=4, batch_size=4)
    return SimulatedCluster.spotless(config, clients=2, outstanding_per_client=2)


# ---------------------------------------------------------------------------
# heal removes only the healed fault's own rules
# ---------------------------------------------------------------------------


def test_overlapping_attack_windows_do_not_heal_each_other():
    """Regression: healing used to remove *every* drop rule, so the first
    attack window to heal silently disabled all concurrent attacks."""
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    short = attack_by_name("A4", attackers=[1])
    long = attack_by_name("A2", attackers=[0], victims=[3])
    injector.launch_attack(short, at=0.0, until=0.1)
    injector.launch_attack(long, at=0.0, until=0.3)
    cluster.start()

    cluster.simulator.run_for(0.05)
    assert len(cluster.network._drop_rules) == 2
    cluster.simulator.run_for(0.1)  # now 0.15: short healed, long still active
    assert cluster.network._drop_rules == [long.should_drop]
    cluster.simulator.run_for(0.2)  # now 0.35: both healed
    assert cluster.network._drop_rules == []


def test_equivocation_attack_installs_and_removes_rewrite_rule():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    attack = attack_by_name("A3", attackers=[3], victims=[0])
    injector.launch_attack(attack, at=0.05, until=0.15)
    cluster.start()

    assert cluster.network._rewrite_rules == []
    cluster.simulator.run_for(0.1)
    assert cluster.network._rewrite_rules == [attack.rewrite]
    assert cluster.network._drop_rules == [attack.should_drop]
    cluster.simulator.run_for(0.1)
    assert cluster.network._rewrite_rules == []
    assert cluster.network._drop_rules == []


def test_overlapping_down_windows_do_not_revive_each_other():
    """Regression: healing an inner crash/A1 window used to call
    ``set_node_down(replica, False)`` unconditionally, reviving a node whose
    outer window was still active."""
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.crash_replicas([3], at=0.0, until=0.3)
    injector.launch_attack(attack_by_name("A1", attackers=[3]), at=0.1, until=0.2)
    cluster.start()

    cluster.simulator.run_for(0.25)  # inner A1 window healed, crash still active
    assert cluster.network.is_down(3)
    cluster.simulator.run_for(0.1)  # now 0.35: outer window healed too
    assert not cluster.network.is_down(3)


def test_overlapping_partitions_compose_and_heal_independently():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.partition([(0, 1), (2, 3)], at=0.0, until=0.3)
    injector.partition([(0, 2), (1, 3)], at=0.1, until=0.2)
    cluster.start()

    cluster.simulator.run_for(0.15)  # both active: only intersections allowed
    partition = cluster.network._partition
    assert not partition.allows(0, 1)  # forbidden by the second partition
    assert not partition.allows(0, 2)  # forbidden by the first partition
    assert partition.allows(0, 0)
    cluster.simulator.run_for(0.1)  # now 0.25: inner healed, outer remains
    partition = cluster.network._partition
    assert partition.allows(0, 1)
    assert not partition.allows(0, 3)
    cluster.simulator.run_for(0.1)  # now 0.35: all healed
    assert cluster.network._partition is None


# ---------------------------------------------------------------------------
# apply/heal ordering and bookkeeping
# ---------------------------------------------------------------------------


def test_fault_schedule_applies_and_heals_in_time_order():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.crash_replicas([3], at=0.2, until=0.4)
    injector.crash_replicas([2], at=0.1, until=0.3)
    cluster.start()
    cluster.simulator.run_for(0.5)
    assert [fault.replicas for fault in injector.applied] == [(2,), (3,)]
    assert [fault.replicas for fault in injector.healed] == [(2,), (3,)]
    assert not cluster.network.is_down(2)
    assert not cluster.network.is_down(3)


def test_partition_is_set_then_cleared():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.partition([(0, 1, 2), (3,)], at=0.1, until=0.2)
    cluster.start()

    cluster.simulator.run_for(0.15)
    partition = cluster.network._partition
    assert isinstance(partition, Partition)
    assert not partition.allows(0, 3)
    assert partition.allows(0, 2)
    cluster.simulator.run_for(0.1)
    assert cluster.network._partition is None


def test_non_responsive_attack_marks_attackers_down_symmetrically():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.launch_attack(attack_by_name("A1", attackers=[1, 2]), at=0.0, until=0.2)
    cluster.start()

    cluster.simulator.run_for(0.1)
    assert cluster.network.is_down(1) and cluster.network.is_down(2)
    assert not cluster.network.is_down(0)
    cluster.simulator.run_for(0.2)
    assert not cluster.network.is_down(1) and not cluster.network.is_down(2)


def test_latency_degradation_scales_and_restores_link_delays():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    base_delay = cluster.network.config.base_delay
    base_jitter = cluster.network.config.jitter
    injector.degrade_latency(4.0, at=0.1, until=0.2)
    cluster.start()

    cluster.simulator.run_for(0.15)
    assert cluster.network.config.base_delay == base_delay * 4.0
    assert cluster.network.config.jitter == base_jitter * 4.0
    cluster.simulator.run_for(0.1)
    assert cluster.network.config.base_delay == base_delay
    assert cluster.network.config.jitter == base_jitter


def test_latency_restores_exactly_for_non_binary_factors():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    base_delay = cluster.network.config.base_delay
    base_jitter = cluster.network.config.jitter
    # Overlapping windows with a factor that is not a power of two: the
    # baseline-snapshot restore must leave no floating-point drift behind.
    injector.degrade_latency(3.0, at=0.05, until=0.3)
    injector.degrade_latency(7.0, at=0.1, until=0.2)
    cluster.start()
    cluster.simulator.run_for(0.15)
    assert cluster.network.config.base_delay == pytest.approx(base_delay * 21.0)
    cluster.simulator.run_for(0.25)
    assert cluster.network.config.base_delay == base_delay
    assert cluster.network.config.jitter == base_jitter


def test_latency_scales_region_topology_delays():
    from repro.sim.network import NetworkConfig, RegionTopology

    topology = RegionTopology(regions=2)
    config = SpotLessConfig(num_replicas=4, batch_size=4)
    cluster = SimulatedCluster.spotless(
        config,
        clients=2,
        outstanding_per_client=2,
        network_config=NetworkConfig(topology=topology),
    )
    injector = FaultInjector(cluster)
    intra, inter = topology.intra_delay, topology.inter_delay
    injector.degrade_latency(4.0, at=0.05, until=0.15)
    cluster.start()
    cluster.simulator.run_for(0.1)
    # link() ignores base_delay when a topology is set, so the region delays
    # themselves must carry the degradation.
    assert topology.intra_delay == intra * 4.0
    assert topology.inter_delay == inter * 4.0
    cluster.simulator.run_for(0.1)
    assert topology.intra_delay == intra
    assert topology.inter_delay == inter


def test_reversed_fault_window_is_rejected():
    # A heal scheduled before its apply would fire first and the fault would
    # then stick for the rest of the run.
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    with pytest.raises(ValueError):
        injector.crash_replicas([3], at=0.3, until=0.1)


def test_fault_schedule_kind_is_recorded():
    fault = FaultSchedule(at=0.1, kind="latency", factor=2.0, until=0.2)
    assert fault.kind == "latency"
    assert fault.factor == 2.0
    assert fault.until == 0.2
