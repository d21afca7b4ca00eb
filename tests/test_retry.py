"""Tests for the one catch-up policy, :class:`repro.runtime.retry.RetryingPull`.

Unit tests pin the primitive itself; one scenario then runs it through every
path built on it — state transfer, HotStuff and Narwhal-HS chain sync and
SpotLess Ask — with the peers asked first staying silent.
"""

from functools import partial

import pytest

from repro.core.messages import AskMessage, ProposeMessage
from repro.protocols.hotstuff.messages import HsChainRequest
from repro.protocols.hotstuff.replica import GENESIS_NODE_DIGEST, ChainNode, chain_node_digest
from repro.recovery import StateRequest
from repro.runtime.retry import RetryingPull
from repro.workload.requests import Operation, Transaction
from tests.manual_timer import ManualTimer
from tests.test_core_instance import Harness
from tests.test_liveness_timers import QuietCluster


class PullHarness:
    """A pull over peers 0..n-1 with recorded sends and a hand-fired timer."""

    def __init__(self, node_id=0, peers=4, fanout=1):
        self.sent = []  # (target, key)
        self.have = set()
        self.timer = ManualTimer("retry", lambda: self.pull.retry())
        self.pull = RetryingPull(
            node_id,
            send=lambda target, key: self.sent.append((target, key)),
            satisfied=self.have.__contains__,
            candidates=lambda key: range(peers),
            fanout=fanout,
            timer=self.timer,
            interval=0.25,
        )

    def targets(self, key=None):
        return [target for target, sent_key in self.sent if key in (None, sent_key)]


def test_self_is_never_a_target():
    h = PullHarness(node_id=2)
    for key in range(12):
        assert h.pull.request(key)
    assert set(h.targets()) == {0, 1, 3}
    assert not h.pull.request("only-me", prefer=(2,))
    assert h.pull.requested == 12


def test_a_retry_never_asks_the_peer_just_tried_when_another_exists():
    h = PullHarness(node_id=0)
    h.pull.request("k", prefer=(3,))
    for _ in range(6):
        h.timer.fire()
    asked = h.targets("k")
    assert asked[:4] == [3, 1, 2, 3]
    assert all(first != second for first, second in zip(asked, asked[1:]))
    assert h.pull.retries == 6 and h.pull.rotations == 6
    # With a single candidate there is nobody else to turn to.
    lone = PullHarness(node_id=0, peers=2)
    lone.pull.request("k")
    lone.timer.fire()
    assert lone.targets("k") == [1, 1]


def test_a_latched_key_is_not_resent_before_the_retry_fires():
    h = PullHarness()
    assert h.pull.request("k")
    assert not h.pull.request("k")
    assert not h.pull.request("k", prefer=(2,))
    assert h.pull.requested == 1
    assert h.pull.request("k", again=True)
    h.timer.fire()
    assert h.pull.requested == 3


def test_retry_reasks_only_the_keys_still_missing():
    h = PullHarness()
    for key in ("a", "b", "c"):
        h.pull.request(key)
    h.have.add("b")
    h.timer.fire()
    assert sorted(key for _, key in h.sent[3:]) == ["a", "c"]
    assert h.pull.missing() == ["a", "c"]
    assert not h.pull.request("b"), "a satisfied key is never asked for"


def test_the_timer_is_armed_once_per_round_and_disarms_when_idle():
    h = PullHarness()
    assert not h.timer.running
    h.pull.request("a")
    h.pull.request("b")
    assert h.timer.running and h.timer.starts == 1 and h.timer.interval == 0.25
    h.timer.fire()
    assert h.timer.running and h.timer.starts == 2
    h.have.update(("a", "b"))
    h.timer.fire()
    assert not h.timer.running and h.timer.starts == 2
    # The owner may also stop the clock as soon as everything arrived.
    h.pull.request("c")
    assert not h.pull.settle()
    h.have.add("c")
    assert h.pull.settle()
    h.pull.disarm()
    assert not h.timer.running


@pytest.mark.parametrize("f", [1, 2, 3])
def test_fanout_f_plus_one_over_2f_plus_one_signers_reaches_a_non_faulty_one(f):
    signers = tuple(range(1, 2 * f + 2))
    for faulty_start in range(len(signers)):
        faulty = {signers[(faulty_start + i) % len(signers)] for i in range(f)}
        h = PullHarness(node_id=0, peers=3 * f + 1, fanout=f + 1)
        for round_number in range(4):
            h.pull.request("floor", prefer=signers, again=True)
            asked = h.targets()[-(f + 1):]
            assert len(set(asked)) == f + 1 and set(asked) <= set(signers)
            assert set(asked) - faulty, f"round {round_number} asked only faulty signers"


# ---------------------------------------------------------------------------
# first-round targets stay silent -> the second round reaches different peers
# ---------------------------------------------------------------------------


class Silenced:
    """Drop rule: the peers ``requester`` asks first never hear its requests."""

    def __init__(self, requester, request_type):
        self.requester = requester
        self.request_type = request_type
        self.first_round = True
        self.silent = set()
        self.reached = set()

    def __call__(self, sender, receiver, message):
        if (
            sender != self.requester
            or receiver == sender
            or not isinstance(message, self.request_type)
        ):
            return False
        if self.first_round:
            self.silent.add(receiver)
        if receiver in self.silent:
            return True
        self.reached.add(receiver)
        return False


def _transaction(sequence):
    return Transaction(client_id=9, sequence=sequence, operations=(Operation.write(sequence, b"v"),))


def _state_transfer():
    """Replica 0 executed nothing; the others certified a checkpoint at 4."""
    cluster = QuietCluster("pbft", checkpoint_interval=4)
    laggard = cluster.replicas[0]
    silenced = Silenced(0, StateRequest)
    cluster.network.add_drop_rule(silenced)
    for replica in cluster.replicas[1:]:
        for position in range(4):
            replica.deliver_batch(position, (_transaction(position),))
    # The checkpoint votes arrive, the laggard sees the gap and asks.
    cluster.simulator.run_for(laggard.config.request_timeout / 2)

    def second_round():
        cluster.simulator.run_for(laggard.config.request_timeout * 2)

    return silenced, second_round, lambda: laggard.executed_transactions == 4


def _chain_fixture(protocol):
    """Replicas 1-3 hold a committed node replica 0 needs."""
    cluster = QuietCluster(protocol)
    requester = cluster.replicas[0]
    # Park the requester in a view it does not lead: sync completion would
    # otherwise (correctly) trigger a proposal and spin up consensus.
    requester.view = 1
    transaction = _transaction(0)
    digest = chain_node_digest(1, GENESIS_NODE_DIGEST, (transaction,))
    for replica in cluster.replicas[1:]:
        replica.nodes[digest] = ChainNode(
            digest=digest,
            view=1,
            parent_digest=GENESIS_NODE_DIGEST,
            transactions=(transaction,),
            justify=None,
            committed=True,
        )
        replica.deliver_batch(0, (transaction,), view=1, slot_digest=digest)
    silenced = Silenced(0, HsChainRequest)
    cluster.network.add_drop_rule(silenced)

    def second_round():
        cluster.simulator.run_for(requester.config.request_timeout * 2)

    return requester, digest, silenced, second_round


def _chain_sync(protocol):
    requester, digest, silenced, second_round = _chain_fixture(protocol)
    requester._request_chain((1,), digest)  # replica 1 revealed the gap
    return silenced, second_round, lambda: digest in requester.nodes


def _spotless_ask():
    """Replica 3 never gets the view-0 proposal and learns it from Syncs."""
    harness = Harness()
    victim = harness.instances[3]
    silenced = Silenced(3, AskMessage)

    def drop(sender, receiver, message):
        if isinstance(message, ProposeMessage) and receiver == 3:
            return True
        return silenced(sender, receiver, message)

    harness.start()
    harness.deliver_all(drop=drop)

    def second_round():
        victim.retry_missing_payloads()
        harness.deliver_all(drop=drop)

    def converged():
        proposal = victim.store.conditionally_prepared_in_view(0)
        return proposal is not None and proposal.has_payload()

    return silenced, second_round, converged


@pytest.mark.parametrize(
    "build",
    [_state_transfer, partial(_chain_sync, "hotstuff"), partial(_chain_sync, "narwhal-hs"), _spotless_ask],
    ids=["state-transfer", "hotstuff-chain-sync", "narwhal-chain-sync", "spotless-ask"],
)
def test_silent_first_round_then_second_round_reaches_other_peers(build):
    silenced, second_round, converged = build()
    assert silenced.silent, "a first round must have gone out"
    assert not converged()
    silenced.first_round = False
    second_round()
    assert silenced.reached, "the second round must reach a peer the first did not"
    assert converged()
