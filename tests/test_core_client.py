"""Unit tests for the SpotLess client (Section 5).

The client is driven against stub replicas inside the discrete-event
simulator: the stubs either answer transactions with Inform messages after a
small delay or stay silent, which exercises the f + 1 confirmation rule, the
failover-and-double-timeout retry loop, and the latency accounting.
"""

from typing import List, Optional

import pytest

from repro.core.client import SpotLessClient
from repro.core.config import SpotLessConfig
from repro.core.messages import InformMessage
from repro.sim.actor import Actor
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import DeterministicRng
from repro.workload.requests import Transaction
from repro.workload.ycsb import YcsbWorkload


class StubReplica(Actor):
    """A replica that answers every transaction with one Inform after a delay."""

    def __init__(self, node_id, simulator, network, responds=True, delay=0.001, duplicate=False):
        super().__init__(node_id, simulator, network)
        self.responds = responds
        self.delay = delay
        self.duplicate = duplicate
        self.received: List[Transaction] = []

    def on_message(self, sender, payload):
        if not isinstance(payload, Transaction):
            return
        self.received.append(payload)
        if not self.responds:
            return
        inform = InformMessage(
            replica=self.node_id,
            client_id=payload.client_id,
            transaction_digest=payload.digest(),
        )
        repeats = 2 if self.duplicate else 1
        for _ in range(repeats):
            self.call_later(self.delay, lambda msg=inform, target=sender: self.send(target, msg, 200))


def _setup(responding_replicas, num_replicas=4, outstanding=2, request_timeout=0.5, duplicate=False):
    """Build a 4-replica stub deployment plus one client."""
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(base_delay=0.0005, jitter=0.0))
    config = SpotLessConfig(num_replicas=num_replicas)
    replicas = [
        StubReplica(
            node_id=replica_id,
            simulator=simulator,
            network=network,
            responds=replica_id in responding_replicas,
            duplicate=duplicate,
        )
        for replica_id in range(num_replicas)
    ]
    workload = YcsbWorkload(rng=DeterministicRng(3))
    client = SpotLessClient(
        client_id=0,
        config=config,
        simulator=simulator,
        network=network,
        workload=workload,
        outstanding=outstanding,
        request_timeout=request_timeout,
        rng=DeterministicRng(5),
    )
    return simulator, replicas, client


def test_client_confirms_after_f_plus_1_matching_informs():
    simulator, _replicas, client = _setup(responding_replicas={0, 1})
    client.start()
    simulator.run_for(0.2)
    assert client.confirmed_transactions >= 1
    assert client.latency.count == client.confirmed_transactions
    assert client.retransmissions == 0


def test_single_inform_is_not_enough_to_confirm():
    simulator, _replicas, client = _setup(responding_replicas={0}, request_timeout=5.0)
    client.start()
    simulator.run_for(0.2)
    assert client.confirmed_transactions == 0
    assert client.unconfirmed_count() == 2


def test_duplicate_informs_from_one_replica_do_not_count_twice():
    simulator, _replicas, client = _setup(responding_replicas={0}, request_timeout=5.0, duplicate=True)
    client.start()
    simulator.run_for(0.2)
    assert client.confirmed_transactions == 0


def test_confirmed_request_is_replaced_to_keep_the_window_full():
    simulator, _replicas, client = _setup(responding_replicas={0, 1, 2}, outstanding=3)
    client.start()
    simulator.run_for(0.3)
    assert client.confirmed_transactions >= 3
    # The closed loop keeps exactly `outstanding` requests in flight.
    assert client.unconfirmed_count() == 3


def test_timeout_triggers_failover_with_doubled_timeout():
    simulator, _replicas, client = _setup(responding_replicas=set(), outstanding=1, request_timeout=0.1)
    client.start()
    simulator.run_for(0.55)
    assert client.retransmissions >= 2
    pending = list(client._pending.values())
    assert pending, "the unanswered request must still be pending"
    assert pending[0].timeout > 0.1
    assert pending[0].retries == client.retransmissions


def test_retransmission_goes_to_the_rotated_target_replica():
    simulator, replicas, client = _setup(
        responding_replicas=set(), outstanding=1, request_timeout=0.1
    )
    client.start()
    # The initial submission broadcasts to all replicas; run long enough for
    # exactly one failover (timeout 0.1 s, doubled to 0.2 s afterwards).
    simulator.run_for(0.15)
    assert client.retransmissions == 1
    request = next(iter(client._pending.values()))
    counts = [len(replica.received) for replica in replicas]
    # Only the rotated failover target saw the transaction a second time.
    assert counts[request.target_replica] == 2
    assert sum(counts) == len(replicas) + 1


def test_confirmation_cancels_the_timeout_timer():
    simulator, _replicas, client = _setup(
        responding_replicas={0, 1}, outstanding=1, request_timeout=0.05
    )
    client.start()
    # Informs arrive ~1.5 ms after each submission, far inside the 50 ms
    # timeout; a leaked timer would fire on the long-confirmed request and
    # count a spurious retransmission.
    simulator.run_for(1.0)
    assert client.confirmed_transactions > 10
    assert client.retransmissions == 0


def test_retransmit_supersedes_the_previous_timeout_timer():
    simulator, _replicas, client = _setup(
        responding_replicas=set(), outstanding=1, request_timeout=0.1
    )
    client.start()
    # Back-off schedule with no replies: failovers at 0.1, 0.3, 0.7 s.  If a
    # superseded timer kept running, extra failovers would land in between.
    simulator.run_for(0.65)
    assert client.retransmissions == 2
    request = next(iter(client._pending.values()))
    assert request.timeout == pytest.approx(0.4)


def test_every_replica_receives_the_disseminated_payload():
    simulator, replicas, client = _setup(responding_replicas={0, 1})
    client.start()
    simulator.run_for(0.05)
    digests_seen = [
        {transaction.digest() for transaction in replica.received} for replica in replicas
    ]
    assert digests_seen[0] == digests_seen[1] == digests_seen[2] == digests_seen[3]
    # The closed loop keeps replacing confirmed requests, so every replica has
    # seen at least the initial window by now.
    assert len(digests_seen[0]) >= 2


def test_latency_measures_submission_to_confirmation_delay():
    simulator, _replicas, client = _setup(responding_replicas={0, 1, 2, 3}, outstanding=1)
    client.start()
    simulator.run_for(0.1)
    assert client.confirmed_transactions >= 1
    # Inform delay is 1 ms plus two 0.5 ms link hops; latency must be in that
    # range rather than ~0 or the full run duration.
    assert 0.001 <= client.mean_latency() <= 0.02


def test_informs_for_unknown_transactions_are_ignored():
    simulator, replicas, client = _setup(responding_replicas=set())
    client.start()
    stray = InformMessage(replica=0, client_id=0, transaction_digest=b"no-such-digest")
    client.on_message(0, stray)
    assert client.confirmed_transactions == 0


def test_non_inform_payloads_are_ignored():
    simulator, _replicas, client = _setup(responding_replicas=set())
    client.start()
    client.on_message(0, "not-an-inform")
    assert client.confirmed_transactions == 0
