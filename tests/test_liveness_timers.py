"""Tests for the liveness machinery fixed by the corpus bugs.

Two mechanism-level bugs wedged replicas permanently under A2-style
partial-withholding attacks:

* the PBFT/RCC progress timer was cancelled on *any* PrePrepare, so a
  drip-feeding primary reset the deadline forever and no view change armed;
* HotStuff/Narwhal chain sync asked only the peer that revealed a gap, with
  no retry — a withholding peer simply never answered.

These tests pin the replacement semantics: a progress deadline that only
commits can extend, and a payload pull behind the committed frontier.  The
retry-with-rotation half lives in ``tests/test_retry.py``, once for every
catch-up path.
"""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.protocols.common import BftConfig
from repro.protocols.hotstuff.replica import (
    GENESIS_NODE_DIGEST,
    ChainNode,
    chain_node_digest,
)
from repro.protocols.pbft.core import PbftEnvironment, PbftInstanceCore
from repro.protocols.pbft.messages import (
    CommitMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.workload.requests import Operation, Transaction
from tests.manual_timer import TimerBoard
from tests.transactions import txn


# ---------------------------------------------------------------------------
# PBFT/RCC progress-deadline semantics (single core, fake environment)
# ---------------------------------------------------------------------------


class CoreHarness:
    """One PBFT core with recorded sends and manually-fired timers."""

    def __init__(self, replica_id=1, instance_id=0, num_replicas=4, pending=1):
        self.sent = []  # (receiver | None, message); None means broadcast
        self.timers = TimerBoard()
        self.pending = pending
        self.core = PbftInstanceCore(
            instance_id=instance_id,
            config=BftConfig(num_replicas=num_replicas),
            environment=PbftEnvironment(
                replica_id=replica_id,
                broadcast=lambda m: self.sent.append((None, m)),
                make_timer=self.timers.make_timer,
                next_batch=lambda instance: None,
                on_decide=lambda instance, seq, view, digests: None,
                owed_work=lambda: self.pending,
            ),
        )
        self.core.start()

    def live_progress_timers(self):
        return self.timers.running("progress")

    def broadcast_view_changes(self):
        return [m for to, m in self.sent if to is None and isinstance(m, ViewChangeMessage)]


def test_drip_fed_preprepares_do_not_reset_the_progress_deadline():
    """A primary that keeps proposing but never commits must not be trusted.

    The old code cancelled the progress timer on every PrePrepare, so a
    drip-feeding primary (propose slot N, withhold the commit phase, repeat)
    reset the deadline forever.  The timer must survive the stream and fire.
    """
    h = CoreHarness(replica_id=1)
    h.core.arm_progress_timer()
    (armed,) = h.live_progress_timers()
    for sequence in range(3):
        h.core.on_preprepare(
            0, PrePrepareMessage(instance=0, view=0, sequence=sequence, transactions=(txn(b"x"),))
        )
    # The original deadline is still live: receiving proposals is a commit
    # *obligation*, not commit *progress*.
    assert armed.running and armed.starts == 1
    armed.fire()
    assert h.core.progress_timeout_fires == 1
    assert h.broadcast_view_changes(), "deadline expiry must escalate to a view change"


def test_commit_with_outstanding_work_extends_the_deadline():
    """Real progress re-arms the deadline instead of firing or disarming."""
    h = CoreHarness(replica_id=1)
    h.core.arm_progress_timer()
    (armed,) = h.live_progress_timers()
    h.core.on_preprepare(
        0, PrePrepareMessage(instance=0, view=0, sequence=0, transactions=(txn(b"x"),))
    )
    for sender in (0, 2, 3):
        h.core.on_prepare(
            sender, PrepareMessage(instance=0, view=0, sequence=0, batch_digest=h.core.slots[0].batch_digest)
        )
    for sender in (0, 2, 3):
        h.core.on_commit(
            sender, CommitMessage(instance=0, view=0, sequence=0, batch_digest=h.core.slots[0].batch_digest)
        )
    # Slot 0 committed; with requests still pending the deadline extends
    # against the new frontier rather than disarming.
    assert h.core.decided_frontier == 0
    assert h.core.progress_deadline_extensions == 1
    assert armed.running and armed.starts == 2, "the deadline restarts from now"
    assert not h.broadcast_view_changes()


def test_deadline_fire_with_drained_workload_is_a_noop():
    """No outstanding work at expiry: nothing to demand a view change for."""
    h = CoreHarness(replica_id=1, pending=0)
    h.core.arm_progress_timer()
    (armed,) = h.live_progress_timers()
    armed.fire()
    assert h.core.progress_timeout_fires == 0
    assert not h.broadcast_view_changes()


def test_view_adoption_rearms_the_progress_deadline():
    """Adoption paths re-arm, so an expiry escalates from the adopted view."""
    h = CoreHarness(replica_id=2)
    h.core.arm_progress_timer()
    (armed,) = h.live_progress_timers()
    # f + 1 distinct senders operating in view 1 trigger adoption.
    for sender in (1, 3):
        h.core.on_message(
            sender, PrepareMessage(instance=0, view=1, sequence=0, batch_digest=b"d")
        )
    assert h.core.view == 1
    assert armed.running and armed.starts == 2, (
        "adoption with outstanding work must re-arm the deadline"
    )
    armed.fire()
    assert [m.new_view for m in h.broadcast_view_changes()] == [2]


def test_rcc_cores_share_the_progress_deadline_semantics():
    """RCC wires the same core per instance; instance 1's backup fires too."""
    h = CoreHarness(replica_id=0, instance_id=1)  # primary of instance 1 is replica 1
    h.core.arm_progress_timer()
    (armed,) = h.live_progress_timers()
    for sequence in range(2):
        h.core.on_preprepare(
            1, PrePrepareMessage(instance=1, view=0, sequence=sequence, transactions=(txn(b"x"),))
        )
    assert armed.running
    armed.fire()
    assert h.core.progress_timeout_fires == 1
    assert any(m.instance == 1 for m in h.broadcast_view_changes())


# ---------------------------------------------------------------------------
# HotStuff/Narwhal payload pull and response verification
# ---------------------------------------------------------------------------


class QuietCluster:
    """Four bare replicas on a live network, with no clients and no start().

    The real cluster factory schedules the whole closed-loop workload, which
    would swamp hand-crafted chain state; these tests need replicas that
    only move when the test injects something.
    """

    def __init__(self, protocol, **config_kwargs):
        from repro.bench.cluster import REPLICA_CLASSES
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.rng import DeterministicRng

        self.simulator = Simulator()
        self.network = Network(self.simulator, rng=DeterministicRng(7))
        config = BftConfig(num_replicas=4, **config_kwargs)
        self.replicas = [
            REPLICA_CLASSES[protocol](
                node_id=i, config=config, simulator=self.simulator, network=self.network
            )
            for i in range(4)
        ]


@pytest.mark.parametrize("protocol", ["hotstuff", "narwhal-hs"])
def test_straggler_executes_a_committed_node_whose_requests_it_missed(protocol):
    """A replica that missed the client broadcasts while partitioned still
    executes what it commits: the chain node carries its transactions, so
    nothing is left to fetch and nothing stalls."""
    cluster = QuietCluster(protocol)
    straggler = cluster.replicas[0]
    straggler.view = 2  # not a view the straggler leads (see rotation test)
    tx = Transaction(client_id=9, sequence=0, operations=(Operation.write(1, b"v"),))
    node_digest = chain_node_digest(1, GENESIS_NODE_DIGEST, (tx,))
    straggler.nodes[node_digest] = ChainNode(
        digest=node_digest,
        view=1,
        parent_digest=GENESIS_NODE_DIGEST,
        transactions=(tx,),
        justify=None,
    )
    straggler._commit_chain(straggler.nodes[node_digest])
    assert straggler.pipeline.next_execution_position == 1
    assert straggler.executed_transactions == 1
    assert straggler.mempool.pending_count() == 0  # the request never arrived
    cluster.simulator.run_for(straggler.config.request_timeout * 3)
    assert straggler.chain_syncs_requested == 0


@pytest.mark.parametrize("protocol", ["hotstuff", "narwhal-hs"])
def test_unsolicited_chain_payloads_are_not_registered(protocol):
    """A node whose transactions do not hash to its digest never lands, so
    a forged request body cannot reach execution."""
    cluster = QuietCluster(protocol)
    victim, attacker = cluster.replicas[0], cluster.replicas[3]
    genuine = Transaction(client_id=9, sequence=0, operations=(Operation.write(5, b"v"),))
    forged = Transaction(client_id=66, sequence=0, operations=(Operation.write(5, b"evil"),))
    from repro.protocols.hotstuff.messages import HsChainResponse, HsNodeData

    digest = chain_node_digest(2, GENESIS_NODE_DIGEST, (genuine,))
    bogus = HsNodeData(
        digest=digest,
        view=2,
        parent_digest=GENESIS_NODE_DIGEST,
        transactions=(forged,),
    )
    victim._chain_requested[digest] = victim.view
    victim._on_chain_response(attacker.node_id, HsChainResponse(nodes=(bogus,)))
    assert digest not in victim.nodes
    assert victim.executed_transactions == 0
