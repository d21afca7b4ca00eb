"""Unit tests for the simulated network, actors and metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _zipf_index_by_loop(table, population, point):
    """The binary search ``zipf_index`` ran as a Python loop: the reference."""
    low, high = 0, population - 1
    while low < high:
        mid = (low + high) // 2
        if table[mid] < point:
            low = mid + 1
        else:
            high = mid
    return low


class _Draws:
    """Stands in for the stream behind a DeterministicRng: replays given points."""

    def __init__(self, points):
        self._points = iter(points)

    def random(self):
        return next(self._points)


@given(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.1, max_value=1.5),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)
@settings(max_examples=60)
def test_zipf_index_matches_the_loop_it_replaced(population, theta, draws):
    table = zipf_cdf(population, theta)
    # Every entry exactly, and either side of it, the first and last included.
    points = [0.0, *draws]
    for entry in table:
        points += [math.nextafter(entry, 0.0), entry, math.nextafter(entry, 2.0)]
    rng = DeterministicRng(1)
    rng._random = _Draws(points)
    for point in points:
        assert rng.zipf_index(population, theta, table) == _zipf_index_by_loop(table, population, point)


# ---------------------------------------------------------------------------
# the unfaulted fan-out and the per-receiver rule path leave the same state
# ---------------------------------------------------------------------------


def _never_drops(sender, receiver, payload):
    return False


def _fabric(jitter, down, busy_until):
    """A simulator at t = 0.25 and a network of seven registered nodes, some
    down, whose NIC clocks are busy until ``busy_until[node]``."""
    sim = Simulator()
    network = Network(
        sim, NetworkConfig(base_delay=0.001, jitter=jitter, bandwidth_bytes_per_sec=1e6), DeterministicRng(11)
    )
    for node in range(7):
        Recorder(node, sim, network)
    for node, until in enumerate(busy_until):
        network._nic_free_at[node] = until
    for node in down:
        network.set_node_down(node)
    sim.run(until=0.25)
    return sim, network


def _state(sim, network):
    """What a fan-out may leave behind, with each heap entry's delivery
    callable replaced by the receiver it is the network's deliverer of (the
    two networks differ)."""
    receiver_of = {deliver: receiver for receiver, deliver in network._deliverers.items()}
    entries = sorted(
        (time, seq, receiver_of[callback], args) for time, seq, callback, args in sim._queue
    )
    return (
        entries,
        sim._seq,
        network.metrics.snapshot(),
        dict(network._nic_free_at),
        network.rng._random.getstate(),
    )


_FANOUTS = st.lists(
    st.tuples(
        st.integers(0, 6),  # sender
        st.lists(st.integers(0, 6), max_size=8),  # receivers, repeats allowed
        st.integers(1, 5000),  # size in bytes
    ),
    min_size=1,
    max_size=6,
)


@given(
    jitter=st.sampled_from([0.0, 0.0002, 0.003]),
    down=st.sets(st.integers(0, 6), max_size=3),
    busy_until=st.lists(st.sampled_from([0.0, 0.2, 0.25, 0.2503]), min_size=7, max_size=7),
    fanouts=_FANOUTS,
)
@settings(max_examples=150, deadline=None)
def test_the_unfaulted_fan_out_matches_the_rule_path(jitter, down, busy_until, fanouts):
    fast_sim, fast = _fabric(jitter, down, busy_until)
    ruled_sim, ruled = _fabric(jitter, down, busy_until)
    # A drop rule that never drops forces the per-receiver path and changes
    # nothing else.
    ruled.add_drop_rule(_never_drops)
    for sender, receivers, size in fanouts:
        sent = fast.broadcast(sender, receivers, ("payload", size), size)
        assert sent == ruled.broadcast(sender, receivers, ("payload", size), size)
        assert _state(fast_sim, fast) == _state(ruled_sim, ruled)
    fast_sim.run()
    ruled_sim.run()
    assert _state(fast_sim, fast) == _state(ruled_sim, ruled)
    assert [actor.received for actor in fast._actors.values()] == [
        actor.received for actor in ruled._actors.values()
    ]


@given(
    jitter=st.sampled_from([0.0, 0.0002]),
    down=st.sets(st.integers(0, 6), max_size=3),
    sends=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 5000)), max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_send_is_a_one_receiver_fan_out(jitter, down, sends):
    busy_until = [0.0] * 7
    sent_sim, sent_net = _fabric(jitter, down, busy_until)
    fanned_sim, fanned_net = _fabric(jitter, down, busy_until)
    for sender, receiver, size in sends:
        delivered = sent_net.send(sender, receiver, "payload", size)
        assert delivered == (fanned_net.broadcast(sender, [receiver], "payload", size) == 1)
        assert _state(sent_sim, sent_net) == _state(fanned_sim, fanned_net)


def test_an_unfaulted_fan_out_shares_one_args_tuple_and_binds_one_deliverer_per_receiver():
    sim, network = _fabric(0.0, {5}, [0.0] * 7)
    payload = ("payload", 1)
    assert network.broadcast(2, [0, 1, 3, 4, 5, 6], payload, 100) == 5
    entries = sorted(sim._queue)
    assert len(entries) == 5
    # One (sender, payload) tuple for the whole fan-out.
    assert entries[0][3] == (2, payload)
    assert all(entry[3] is entries[0][3] for entry in entries)
    # Each receiver's entry fires that receiver's deliverer, the same one
    # every later delivery to it uses.
    assert [entry[2] for entry in entries] == [network._deliverers[receiver] for receiver in (0, 1, 3, 4, 6)]
    network.broadcast(3, [0], payload, 100)
    assert max(sim._queue, key=lambda entry: entry[1])[2] is network._deliverers[0]
    sim.run()
    assert [len(actor.received) for actor in network._actors.values()] == [2, 1, 0, 1, 1, 0, 1]
