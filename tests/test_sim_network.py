"""Unit tests for the simulated network, actors and metrics."""

import pytest

from repro.sim.actor import Actor
from repro.sim.engine import Simulator
from repro.sim.metrics import Histogram, MetricsRegistry, TimeSeries, percentile
from repro.sim.network import Network, NetworkConfig, Partition, RegionTopology
from repro.sim.rng import DeterministicRng, zipf_cdf


class Recorder(Actor):
    """Test actor that records everything delivered to it."""

    def __init__(self, node_id, simulator, network):
        super().__init__(node_id, simulator, network)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload, self.now))


def make_pair(config=None):
    sim = Simulator()
    network = Network(sim, config or NetworkConfig(jitter=0.0))
    a = Recorder(0, sim, network)
    b = Recorder(1, sim, network)
    return sim, network, a, b


def test_message_delivered_after_link_delay():
    sim, network, a, b = make_pair(NetworkConfig(base_delay=0.01, jitter=0.0, bandwidth_bytes_per_sec=1e12))
    a.send(1, "hello", 100)
    sim.run()
    assert len(b.received) == 1
    sender, payload, time = b.received[0]
    assert sender == 0 and payload == "hello"
    assert time == pytest.approx(0.01, rel=1e-6)


def test_nic_bandwidth_serialises_consecutive_sends():
    config = NetworkConfig(base_delay=0.0, jitter=0.0, bandwidth_bytes_per_sec=1000.0)
    sim, network, a, b = make_pair(config)
    a.send(1, "first", 500)
    a.send(1, "second", 500)
    sim.run()
    times = [time for _, _, time in b.received]
    assert times[0] == pytest.approx(0.5, rel=1e-6)
    assert times[1] == pytest.approx(1.0, rel=1e-6)


def test_broadcast_reaches_all_receivers():
    sim = Simulator()
    network = Network(sim, NetworkConfig(jitter=0.0))
    actors = [Recorder(i, sim, network) for i in range(4)]
    sent = actors[0].broadcast([1, 2, 3], "ping", 64)
    sim.run()
    assert sent == 3
    assert all(len(actor.received) == 1 for actor in actors[1:])


def test_down_node_neither_sends_nor_receives():
    sim, network, a, b = make_pair()
    network.set_node_down(1)
    assert a.send(1, "x", 10) is False or True  # drop decided at send or delivery
    sim.run()
    assert b.received == []
    network.set_node_down(1, False)
    a.send(1, "y", 10)
    sim.run()
    assert [payload for _, payload, _ in b.received] == ["y"]


def test_partition_blocks_cross_group_traffic():
    sim = Simulator()
    network = Network(sim, NetworkConfig(jitter=0.0))
    actors = [Recorder(i, sim, network) for i in range(4)]
    partition = Partition(groups=(frozenset({0, 1}), frozenset({2, 3})))
    network.add_drop_rule(partition.blocks)
    actors[0].send(1, "same-side", 10)
    actors[0].send(2, "cross", 10)
    sim.run()
    assert [p for _, p, _ in actors[1].received] == ["same-side"]
    assert actors[2].received == []
    network.remove_drop_rule(partition.blocks)
    actors[0].send(2, "healed", 10)
    sim.run()
    assert [p for _, p, _ in actors[2].received] == ["healed"]


def test_drop_rule_filters_specific_messages():
    sim, network, a, b = make_pair()
    def drop_bad(sender, receiver, payload):
        return payload == "bad"

    network.add_drop_rule(drop_bad)
    a.send(1, "bad", 10)
    a.send(1, "good", 10)
    sim.run()
    assert [p for _, p, _ in b.received] == ["good"]
    network.remove_drop_rule(drop_bad)
    a.send(1, "bad", 10)
    sim.run()
    assert [p for _, p, _ in b.received] == ["good", "bad"]


def test_region_topology_gives_higher_cross_region_delay():
    topology = RegionTopology(regions=2, intra_delay=0.001, inter_delay=0.05, jitter_fraction=0.0)
    assert topology.link(0, 2, 1.0).delay == 0.001  # same region (0 and 2 are both region 0)
    assert topology.link(0, 1, 1.0).delay == 0.05


def test_duplicate_registration_rejected():
    sim = Simulator()
    network = Network(sim, NetworkConfig())
    Recorder(0, sim, network)
    with pytest.raises(ValueError):
        Recorder(0, sim, network)


def test_network_metrics_count_sent_and_delivered():
    sim, network, a, b = make_pair()
    a.send(1, "x", 100)
    sim.run()
    assert network.metrics.counter("network.messages_sent").value == 1
    assert network.metrics.counter("network.messages_delivered").value == 1
    assert network.metrics.counter("network.bytes_sent").value == 100


# ---------------------------------------------------------------------------
# timers and actors
# ---------------------------------------------------------------------------


def test_actor_timer_fires_and_can_be_cancelled():
    sim = Simulator()
    network = Network(sim, NetworkConfig())
    actor = Recorder(0, sim, network)
    fired = []
    timer = actor.timer("t", lambda: fired.append(actor.now))
    timer.start(0.5)
    sim.run()
    assert fired == [0.5]
    timer.start(0.5)
    timer.cancel()
    sim.run()
    assert fired == [0.5]


def test_actor_timer_restart_replaces_previous_deadline():
    sim = Simulator()
    network = Network(sim, NetworkConfig())
    actor = Recorder(0, sim, network)
    fired = []
    timer = actor.timer("t", lambda: fired.append(actor.now))
    timer.start(1.0)
    sim.run(until=0.5)
    timer.start(1.0)
    sim.run()
    assert fired == [1.5]


# ---------------------------------------------------------------------------
# metrics and RNG
# ---------------------------------------------------------------------------


def test_histogram_statistics():
    histogram = Histogram("lat")
    for value in [1.0, 2.0, 3.0, 4.0]:
        histogram.observe(value)
    assert histogram.mean() == pytest.approx(2.5)
    assert histogram.percentile(0.5) == 2.0
    # The free function is the one rank rule: the lower of an even count's
    # two middle samples, the last sample at 1.0, 0.0 with nothing to rank.
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.99) == percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert percentile([], 0.5) == 0.0
    assert histogram.maximum() == 4.0
    assert histogram.minimum() == 1.0
    histogram.reset()
    assert histogram.count == 0


def test_time_series_buckets_by_interval():
    series = TimeSeries(name="tput", bucket_width=5.0)
    series.record(1.0, 10)
    series.record(4.0, 10)
    series.record(6.0, 5)
    assert series.buckets() == [(0.0, 20.0), (5.0, 5.0)]


def test_metrics_registry_snapshot_and_reset():
    registry = MetricsRegistry()
    registry.counter("x").increment(3)
    registry.histogram("y").observe(2.0)
    snapshot = registry.snapshot()
    assert snapshot["x"] == 3
    assert snapshot["y.mean"] == 2.0
    registry.reset()
    assert registry.counter("x").value == 0


def test_deterministic_rng_reproducible_and_forked_streams_differ():
    a1 = DeterministicRng(42).fork("x")
    a2 = DeterministicRng(42).fork("x")
    b = DeterministicRng(42).fork("y")
    seq1 = [a1.random() for _ in range(5)]
    seq2 = [a2.random() for _ in range(5)]
    seq3 = [b.random() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seq3


def test_zipf_cdf_is_monotone_and_normalised():
    table = zipf_cdf(100, 0.99)
    assert len(table) == 100
    assert all(earlier <= later for earlier, later in zip(table, table[1:]))
    assert table[-1] == pytest.approx(1.0)


def test_zipf_sampling_prefers_low_indices():
    rng = DeterministicRng(5)
    table = zipf_cdf(1000, 0.99)
    samples = [rng.zipf_index(1000, table=table) for _ in range(2000)]
    low = sum(1 for s in samples if s < 100)
    assert low > len(samples) * 0.4
