"""Tests for fault scheduling: apply/heal ordering and rule ownership."""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.faults.injector import FaultEvent, FaultInjector


def make_cluster():
    config = SpotLessConfig(num_replicas=4, batch_size=4)
    return SimulatedCluster.spotless(config, clients=2, outstanding_per_client=2)


def blocked(network, sender, receiver):
    """True when an installed drop rule loses ``sender`` -> ``receiver``."""
    return any(rule(sender, receiver, None) for rule in network._drop_rules)


# ---------------------------------------------------------------------------
# heal removes only the healed fault's own rules
# ---------------------------------------------------------------------------


def test_overlapping_attack_windows_do_not_heal_each_other():
    """Regression: healing used to remove *every* drop rule, so the first
    attack window to heal silently disabled all concurrent attacks."""
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="A4", at=0.0, until=0.1, replicas=(1,)))
    injector.schedule(FaultEvent(kind="A2", at=0.0, until=0.3, replicas=(0,), victims=(3,)))
    cluster.start()

    cluster.simulator.run_for(0.05)
    assert len(cluster.network._drop_rules) == 2
    cluster.simulator.run_for(0.1)  # now 0.15: short healed, long still active
    (rule,) = cluster.network._drop_rules
    assert rule.__self__.name == "A2"
    cluster.simulator.run_for(0.2)  # now 0.35: both healed
    assert cluster.network._drop_rules == []


def test_equivocation_attack_installs_and_removes_rewrite_rule():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="A3", at=0.05, until=0.15, replicas=(3,), victims=(0,)))
    cluster.start()

    assert cluster.network._rewrite_rules == []
    cluster.simulator.run_for(0.1)
    (rule,) = cluster.network._rewrite_rules
    assert rule.__self__.name == "A3"
    # A3 equivocates; it drops nothing, so it installs no drop rule.
    assert cluster.network._drop_rules == []
    cluster.simulator.run_for(0.1)
    assert cluster.network._rewrite_rules == []
    assert cluster.network._drop_rules == []


def test_overlapping_down_windows_do_not_revive_each_other():
    """Regression: healing an inner crash/A1 window used to call
    ``set_node_down(replica, False)`` unconditionally, reviving a node whose
    outer window was still active."""
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="crash", at=0.0, until=0.3, replicas=(3,)))
    injector.schedule(FaultEvent(kind="A1", at=0.1, until=0.2, replicas=(3,)))
    cluster.start()

    cluster.simulator.run_for(0.25)  # inner A1 window healed, crash still active
    assert cluster.network.is_down(3)
    cluster.simulator.run_for(0.1)  # now 0.35: outer window healed too
    assert not cluster.network.is_down(3)


def test_overlapping_partitions_compose_and_heal_independently():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="partition", at=0.0, until=0.3, groups=((0, 1), (2, 3))))
    injector.schedule(FaultEvent(kind="partition", at=0.1, until=0.2, groups=((0, 2), (1, 3))))
    cluster.start()
    network = cluster.network

    cluster.simulator.run_for(0.15)  # both active: only intersections allowed
    assert blocked(network, 0, 1)  # forbidden by the second partition
    assert blocked(network, 0, 2)  # forbidden by the first partition
    assert not blocked(network, 0, 0)
    cluster.simulator.run_for(0.1)  # now 0.25: inner healed, outer remains
    assert not blocked(network, 0, 1)
    assert blocked(network, 0, 3)
    cluster.simulator.run_for(0.1)  # now 0.35: all healed
    assert network._drop_rules == []


# ---------------------------------------------------------------------------
# apply/heal ordering
# ---------------------------------------------------------------------------


def test_fault_schedule_applies_and_heals_in_time_order():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="crash", at=0.2, until=0.4, replicas=(3,)))
    injector.schedule(FaultEvent(kind="crash", at=0.1, until=0.3, replicas=(2,)))
    cluster.start()
    cluster.simulator.run_for(0.05)
    down = []
    for _ in range(4):  # sampled at 0.15, 0.25, 0.35, 0.45
        cluster.simulator.run_for(0.1)
        down.append(tuple(r for r in range(4) if cluster.network.is_down(r)))
    assert down == [(2,), (2, 3), (3,), ()]


def test_partition_is_set_then_cleared():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="partition", at=0.1, until=0.2, groups=((0, 1, 2), (3,))))
    cluster.start()

    cluster.simulator.run_for(0.15)
    assert len(cluster.network._drop_rules) == 1
    assert blocked(cluster.network, 0, 3)
    assert not blocked(cluster.network, 0, 2)
    cluster.simulator.run_for(0.1)
    assert cluster.network._drop_rules == []


def test_non_responsive_attack_marks_attackers_down_symmetrically():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    injector.schedule(FaultEvent(kind="A1", at=0.0, until=0.2, replicas=(1, 2)))
    cluster.start()

    cluster.simulator.run_for(0.1)
    assert cluster.network.is_down(1) and cluster.network.is_down(2)
    assert not cluster.network.is_down(0)
    # A1 is the crash's down-mark, not a drop rule.
    assert cluster.network._drop_rules == []
    cluster.simulator.run_for(0.2)
    assert not cluster.network.is_down(1) and not cluster.network.is_down(2)


# ---------------------------------------------------------------------------
# latency windows scale the network's links, never the caller's config
# ---------------------------------------------------------------------------


def test_latency_degradation_scales_and_restores_link_delays():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    base = cluster.network._link(0, 1)
    injector.schedule(FaultEvent(kind="latency", at=0.1, until=0.2, factor=4.0))
    cluster.start()

    cluster.simulator.run_for(0.15)
    assert cluster.network._link(0, 1).delay == base.delay * 4.0
    assert cluster.network._link(0, 1).jitter == base.jitter * 4.0
    cluster.simulator.run_for(0.1)
    assert cluster.network._link(0, 1) == base


def test_latency_restores_exactly_for_non_binary_factors():
    cluster = make_cluster()
    injector = FaultInjector(cluster)
    base = cluster.network._link(0, 1)
    # Overlapping windows with a factor that is not a power of two: each heal
    # divides by its own factor, leaving no floating-point drift behind.
    injector.schedule(FaultEvent(kind="latency", at=0.05, until=0.3, factor=3.0))
    injector.schedule(FaultEvent(kind="latency", at=0.1, until=0.2, factor=7.0))
    cluster.start()
    cluster.simulator.run_for(0.15)
    assert cluster.network._link(0, 1).delay == pytest.approx(base.delay * 21.0)
    cluster.simulator.run_for(0.25)
    assert cluster.network._link(0, 1) == base


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
    intra, inter = cluster.network._link(0, 2), cluster.network._link(0, 1)
    injector.schedule(FaultEvent(kind="latency", at=0.05, until=0.15, factor=4.0))
    cluster.start()
    cluster.simulator.run_for(0.1)
    # A topology ignores base_delay, so its region delays carry the factor,
    # and the jitter follows the scaled delay.
    assert cluster.network._link(0, 2).delay == intra.delay * 4.0
    assert cluster.network._link(0, 1).delay == inter.delay * 4.0
    assert cluster.network._link(0, 1).jitter == inter.delay * 4.0 * topology.jitter_fraction
    cluster.simulator.run_for(0.1)
    assert cluster.network._link(0, 2) == intra
    assert cluster.network._link(0, 1) == inter


def test_latency_window_leaves_the_callers_config_untouched():
    from repro.sim.network import NetworkConfig, RegionTopology

    for topology in (None, RegionTopology(regions=2)):
        network_config = NetworkConfig(topology=topology)
        fields = (network_config.base_delay, network_config.jitter)
        regions = (topology.intra_delay, topology.inter_delay) if topology else None
        cluster = SimulatedCluster.spotless(
            SpotLessConfig(num_replicas=4, batch_size=4),
            clients=2,
            outstanding_per_client=2,
            network_config=network_config,
        )
        base = cluster.network._link(0, 1)
        FaultInjector(cluster).schedule(FaultEvent(kind="latency", at=0.05, factor=4.0))
        cluster.start()
        cluster.simulator.run_for(0.1)  # inside the window, which never heals
        assert cluster.network._link(0, 1).delay == base.delay * 4.0
        assert (network_config.base_delay, network_config.jitter) == fields
        if topology is not None:
            assert (topology.intra_delay, topology.inter_delay) == regions


def test_reversed_fault_window_is_rejected():
    # A heal scheduled before its apply would fire first and the fault would
    # then stick for the rest of the run.
    with pytest.raises(ValueError):
        FaultEvent(kind="crash", at=0.3, until=0.1, replicas=(3,))
    with pytest.raises(ValueError):
        FaultEvent(kind="latency", at=0.1, factor=0.0)
