"""Tests for the baseline protocols: PBFT, RCC, HotStuff and Narwhal-HS."""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.core.messages import ProposeMessage
from repro.crypto.certificates import QuorumCert
from repro.protocols.common import BftConfig
from repro.protocols.hotstuff.messages import HsProposal
from repro.protocols.hotstuff.replica import GENESIS_NODE_DIGEST
from repro.protocols.pbft.core import PbftEnvironment, PbftInstanceCore
from repro.protocols.pbft.messages import (
    CommitMessage,
    NewViewMessage,
    PrepareMessage,
    PrePrepareMessage,
    ViewChangeMessage,
)
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import single_fault_spec
from repro.workload.requests import Operation, Transaction
from tests.manual_timer import TimerBoard
from tests.transactions import txn


# ---------------------------------------------------------------------------
# BftConfig
# ---------------------------------------------------------------------------


def test_bft_config_quorums_and_validation():
    config = BftConfig(num_replicas=7)
    assert config.f == 2
    assert config.quorum == 5
    assert config.weak_quorum == 3
    with pytest.raises(ValueError):
        BftConfig(num_replicas=2)


# ---------------------------------------------------------------------------
# PBFT core state machine (manual harness)
# ---------------------------------------------------------------------------


class PbftHarness:
    """Connects PBFT cores of all replicas with manual delivery queues."""

    def __init__(self, num_replicas=4, batches=None, **config_kwargs):
        self.config = BftConfig(num_replicas=num_replicas, **config_kwargs)
        self.queues = []
        self.decisions = {r: [] for r in range(num_replicas)}
        self.batches = {r: [tuple(txn(tag) for tag in batch) for batch in batches or []] for r in range(num_replicas)}
        self.timers = {r: TimerBoard() for r in range(num_replicas)}
        self.cores = {}
        for replica in range(num_replicas):
            self.cores[replica] = PbftInstanceCore(
                instance_id=0,
                config=self.config,
                environment=PbftEnvironment(
                    replica_id=replica,
                    broadcast=lambda m, _r=replica: self.queues.append((_r, None, m)),
                    make_timer=self.timers[replica].make_timer,
                    next_batch=lambda instance, _r=replica: self._next_batch(_r),
                    on_decide=lambda instance, seq, view, digests, _r=replica: self.decisions[_r].append(
                        (seq, view, digests)
                    ),
                    owed_work=lambda _r=replica: len(self.batches[_r]),
                ),
            )

    def _next_batch(self, replica):
        if self.batches[replica]:
            return self.batches[replica].pop(0)
        return None

    def deliver_all(self, drop=None, max_rounds=50):
        rounds = 0
        while self.queues and rounds < max_rounds:
            rounds += 1
            batch, self.queues = self.queues, []
            for sender, receiver, message in batch:
                targets = [receiver] if receiver is not None else list(self.cores)
                for target in targets:
                    if drop and drop(sender, target, message):
                        continue
                    self.cores[target].on_message(sender, message)

    def fire_timers(self, replica):
        self.timers[replica].fire_running()


def test_pbft_normal_case_decides_the_batch_everywhere():
    harness = PbftHarness(batches=[(b"t1", b"t2")])
    for core in harness.cores.values():
        core.start()
    harness.deliver_all()
    for replica, decisions in harness.decisions.items():
        assert decisions == [(0, 0, (txn(b"t1"), txn(b"t2")))]


def test_pbft_out_of_order_processing_runs_slots_concurrently():
    harness = PbftHarness(batches=[(b"a",), (b"b",), (b"c",)])
    primary = harness.cores[0]
    primary.start()
    # Before any Prepare/Commit exchange the primary has already pre-proposed
    # all three batches (window is 4).
    assert primary.preprepares_sent == 3
    harness.deliver_all()
    assert [seq for seq, _, _ in sorted(harness.decisions[1])] == [0, 1, 2]


def test_pbft_requires_quorum_before_deciding():
    harness = PbftHarness(batches=[(b"a",)])
    harness.cores[0].start()

    def drop_commits_to_replica_3(sender, receiver, message):
        return isinstance(message, (PrepareMessage, CommitMessage)) and receiver == 3 and sender != 3

    harness.deliver_all(drop=drop_commits_to_replica_3)
    # Replica 3 saw the PrePrepare but not enough Prepare/Commit messages.
    assert harness.decisions[0] and harness.decisions[1]
    assert harness.decisions[3] == []


def test_pbft_ignores_equivocating_second_preprepare():
    harness = PbftHarness(batches=[(b"a",)])
    backup = harness.cores[1]
    backup.on_preprepare(0, PrePrepareMessage(instance=0, view=0, sequence=0, transactions=(txn(b"x"),)))
    backup.on_preprepare(0, PrePrepareMessage(instance=0, view=0, sequence=0, transactions=(txn(b"y"),)))
    slot = backup.slots[0]
    assert slot.transactions == (txn(b"x"),)


def test_pbft_rejects_preprepare_from_non_primary():
    harness = PbftHarness()
    backup = harness.cores[1]
    backup.on_preprepare(2, PrePrepareMessage(instance=0, view=0, sequence=0, transactions=(txn(b"x"),)))
    assert 0 not in backup.slots or backup.slots[0].transactions is None


def test_pbft_view_change_replaces_silent_primary():
    harness = PbftHarness(batches=[(b"a",)])
    # Do not start the primary (replica 0); backups arm their progress timers.
    for replica in (1, 2, 3):
        harness.cores[replica].arm_progress_timer()
        harness.fire_timers(replica)
    harness.deliver_all()
    # Replica 1 is the primary of view 1 and should have announced NewView.
    assert all(harness.cores[r].view == 1 for r in (1, 2, 3))
    assert harness.cores[1].is_primary()


def test_pbft_view_change_reproposes_prepared_slots():
    harness = PbftHarness(batches=[(b"a",)])
    harness.cores[0].start()

    # Let the slot prepare everywhere but drop all Commit messages so nothing decides.
    def drop_commits(sender, receiver, message):
        return isinstance(message, CommitMessage)

    harness.deliver_all(drop=drop_commits)
    assert all(not decisions for decisions in harness.decisions.values())
    # Now force a view change; the prepared slot must be re-proposed and decided.
    for replica in (1, 2, 3):
        harness.cores[replica].request_view_change(1)
    harness.deliver_all()
    for replica in (1, 2, 3):
        assert any(seq == 0 and batch == (txn(b"a"),) for seq, _view, batch in harness.decisions[replica])


def test_pbft_equivocating_votes_do_not_count_toward_honest_quorum():
    """Regression: Prepare/Commit votes arriving before the PrePrepare were
    recorded without the digest they voted for, so an A3-rewritten phantom
    vote could be credited toward the honest batch's quorum."""
    harness = PbftHarness()
    victim = harness.cores[1]
    phantom = PrepareMessage(instance=0, view=0, sequence=0, batch_digest=b"phantom")
    victim.on_prepare(3, phantom)  # equivocating vote lands first
    preprepare = PrePrepareMessage(
        instance=0, view=0, sequence=0, transactions=(txn(b"a"),)
    )
    victim.on_preprepare(0, preprepare)
    honest = PrepareMessage(
        instance=0, view=0, sequence=0, batch_digest=preprepare.batch_digest()
    )
    victim.on_prepare(2, honest)
    # Two matching votes (primary + replica 2): one short of the quorum of 3;
    # the phantom vote from replica 3 must not close the gap.
    assert not victim.slots[0].prepared
    victim.on_prepare(3, honest)  # the attacker's honest-side vote does count
    assert victim.slots[0].prepared


def test_pbft_view_change_vote_carries_unprepared_content():
    """A slot whose content was received but never re-prepared (e.g. reset by
    a prior NewView) must still travel in the ViewChange vote — forgetting it
    between two rapid view changes could let a committed slot be no-op
    filled."""
    harness = PbftHarness()
    backup = harness.cores[1]
    preprepare = PrePrepareMessage(
        instance=0, view=0, sequence=0, transactions=(txn(b"a"),)
    )
    backup.on_preprepare(0, preprepare)
    assert not backup.slots[0].prepared
    harness.queues.clear()
    backup.request_view_change(1)
    votes = [m for _s, _r, m in harness.queues if isinstance(m, ViewChangeMessage)]
    assert votes and votes[0].prepared_slots == ((0, 0, (txn(b"a"),)),)


def test_pbft_view_change_backfills_replica_that_missed_decisions():
    """Regression: view-change votes used to carry only slots above the
    voter's decided frontier, so a slot committed everywhere except on a
    replica that was isolated arrived at that replica as neither a
    re-proposal nor a no-op — it could assemble quorums for nothing and its
    execution frontier wedged forever."""
    harness = PbftHarness(batches=[(b"a",), (b"b",)])
    harness.cores[0].start()

    def isolate_replica_3(sender, receiver, message):
        return sender == 3 or receiver == 3

    harness.deliver_all(drop=isolate_replica_3)
    assert [seq for seq, _, _ in sorted(harness.decisions[0])] == [0, 1]
    assert harness.decisions[3] == []
    # Replica 3 heals; a view change must hand it the decided slots' content.
    for replica in (0, 1, 2, 3):
        harness.cores[replica].request_view_change(1)
    harness.deliver_all()
    assert [seq for seq, _, _ in sorted(harness.decisions[3])] == [0, 1]
    for sequence, reference in ((0, (txn(b"a"),)), (1, (txn(b"b"),))):
        decided = [d for s, _v, d in harness.decisions[3] if s == sequence]
        assert decided == [reference]


# ---------------------------------------------------------------------------
# protocol cluster integrations (message-level simulator)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff", "narwhal-hs"])
def test_baseline_cluster_liveness_and_consistency(protocol):
    cluster = SimulatedCluster.for_protocol(protocol, num_replicas=4, clients=3, outstanding_per_client=4, batch_size=5)
    result = cluster.run(duration=1.0)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 5
    assert all(replica.ledger.verify_chain() for replica in cluster.replicas)


def test_rcc_cluster_liveness_and_consistency():
    cluster = SimulatedCluster.for_protocol("rcc", num_replicas=4, clients=3, outstanding_per_client=4, batch_size=5)
    result = cluster.run(duration=0.4)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 5


def test_for_protocol_rejects_unknown_names():
    with pytest.raises(ValueError):
        SimulatedCluster.for_protocol("raft", num_replicas=4)


def test_rcc_routes_requests_to_instances_and_resolves_noops():
    # No checkpoints: every executed position is in the archive from 0 up.
    cluster = SimulatedCluster.for_protocol(
        "rcc", num_replicas=4, clients=2, outstanding_per_client=2, batch_size=5, checkpoint_interval=0
    )
    cluster.run(duration=0.3)
    replica = cluster.replicas[0]
    assert replica.num_instances == 4
    noops, real_high = [], {}
    decided = [*replica.checkpoints.archive, *replica.pipeline.pending.values()]
    assert decided
    for entry in decided:
        position = entry.position
        sequence, instance = divmod(position, replica.num_instances)
        (record,) = entry.records
        assert record.instance == instance
        if not record.transactions:
            noops.append((sequence, instance))
        else:
            real_high[instance] = max(real_high.get(instance, -1), sequence)
    # A no-op (an empty record) fills a round only up to another instance's
    # client content, and every replica executes past it alike.
    assert noops
    for sequence, instance in noops:
        assert max(high for other, high in real_high.items() if other != instance) >= sequence
    cluster.assert_no_divergence()


def _preprepares_by_instance(cluster):
    counts = {}
    for replica in cluster.replicas:
        for instance, core in replica.cores.items():
            counts[instance] = counts.get(instance, 0) + core.preprepares_sent
    return counts


def test_idle_rcc_cluster_sends_no_preprepare():
    cluster = SimulatedCluster.for_protocol("rcc", num_replicas=4, clients=0)
    cluster.run(duration=0.1)
    assert _preprepares_by_instance(cluster) == {0: 0, 1: 0, 2: 0, 3: 0}


def test_one_request_makes_every_other_instance_fill_its_round_once():
    cluster = SimulatedCluster.for_protocol("rcc", num_replicas=4, clients=0)
    transaction = Transaction(client_id=0, sequence=0, operations=(Operation.write(1, b"v"),))
    for replica in cluster.replicas:
        replica.submit_transaction(transaction)
    cluster.run(duration=0.1)
    # The request's instance proposes it at sequence 0; each other instance
    # proposes exactly the one no-op that closes round 0, and no more.
    assert _preprepares_by_instance(cluster) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert [replica.executed_transactions for replica in cluster.replicas] == [1, 1, 1, 1]
    assert [replica.pipeline.next_execution_position for replica in cluster.replicas] == [4, 4, 4, 4]


#: The message each stack's primary proposes a batch in.
PROPOSAL_CLASSES = {"hotstuff": HsProposal, "rcc": PrePrepareMessage, "spotless": ProposeMessage}


@pytest.mark.parametrize("protocol", sorted(PROPOSAL_CLASSES))
def test_an_idle_primary_proposes_the_empty_batch(protocol):
    """A no-op is written one way in every stack: the empty batch, which
    carries nothing."""
    cluster = SimulatedCluster.for_protocol(protocol, num_replicas=4, clients=0)
    proposals = []
    for replica in cluster.replicas:

        def capture(receivers, payload, size, _broadcast=replica.broadcast):
            if isinstance(payload, PROPOSAL_CLASSES[protocol]):
                proposals.append(payload.transactions)
            return _broadcast(receivers, payload, size)

        replica.broadcast = capture
    requests = ()
    if protocol == "rcc":
        # RCC's idle primary waits for a round to fill: one request opens it.
        requests = (Transaction(client_id=0, sequence=0, operations=(Operation.write(1, b"v"),)),)
        for replica in cluster.replicas:
            replica.submit_transaction(requests[0])
    cluster.run(duration=0.1)
    assert proposals.count(()) >= 3
    assert [batch for batch in proposals if batch] == [(request,) for request in requests]
    assert [replica.executed_transactions for replica in cluster.replicas] == [len(requests)] * 4


def test_rcc_crash_changes_view_only_on_the_crashed_primarys_instance():
    """Each instance's deadline counts only what that instance owes.

    With the replica-wide request count, a round waiting on the crashed
    primary's instance made every other instance look stalled too, and the
    correct primaries of instances 0-2 were deposed.
    """
    runner = ScenarioRunner(single_fault_spec("rcc", "crash", f=1, duration=0.4, seed=1))
    result = runner.run()
    assert result.violations == () and result.stragglers == ()
    for replica in runner.cluster.replicas:
        views = replica.instance_views()
        assert [views[i] for i in (0, 1, 2)] == [0, 0, 0]
        assert views[3] > 0


def test_hotstuff_three_chain_commit_and_leader_rotation():
    cluster = SimulatedCluster.for_protocol("hotstuff", num_replicas=4, clients=2, outstanding_per_client=3, batch_size=5)
    cluster.run(duration=1.0)
    replica = cluster.replicas[0]
    assert replica.committed_chain_height() > 3
    assert replica.view > 3
    # Committed chain nodes come from a rotation of leaders, not a single one.
    leader_views = {node.view % 4 for node in replica.nodes.values() if node.committed and node.view >= 0}
    assert len(leader_views) > 1


def test_hotstuff_quorum_cert_validation():
    qc = QuorumCert(view=3, digest=b"d", signers=(0, 1, 2))
    assert qc.has_quorum(3, 4)
    assert not qc.has_quorum(4, 4)
    duplicate_signers = QuorumCert(view=3, digest=b"d", signers=(0, 0, 0))
    assert not duplicate_signers.has_quorum(2, 4)


def test_hotstuff_chain_sync_drops_unsolicited_and_heals_stripped_justify():
    """A Byzantine peer cannot park justify-stripped copies of genuine nodes.

    The chain-node digest deliberately excludes the justify (it is
    recomputed from shipped content), so a QC-stripped copy of a genuine
    node hashes correctly.  It must not be accepted unsolicited, and a
    later validated QC for an already-recorded digest must upgrade the
    node — otherwise the stripped copy would suppress the three-chain
    commit rule forever.
    """
    from repro.protocols.hotstuff.messages import HsChainResponse, HsNodeData, HsProposal
    from repro.protocols.hotstuff.replica import chain_node_digest

    cluster = SimulatedCluster.for_protocol(
        "hotstuff", num_replicas=4, clients=1, outstanding_per_client=1, batch_size=5
    )
    replica = cluster.replicas[0]
    batch = (txn(b"sync-batch"),)
    digest = chain_node_digest(5, GENESIS_NODE_DIGEST, batch)
    stripped = HsNodeData(
        digest=digest,
        view=5,
        parent_digest=GENESIS_NODE_DIGEST,
        transactions=batch,
        justify=None,
    )
    # Unsolicited response: dropped entirely.
    replica._on_chain_response(1, HsChainResponse(nodes=(stripped,)))
    assert digest not in replica.nodes
    # Solicited: recorded, but with a justify hole...
    replica._chain_requested[digest] = replica.view
    replica._on_chain_response(1, HsChainResponse(nodes=(stripped,)))
    assert replica.nodes[digest].justify is None
    # ...that a validated QC in a later segment heals...
    qc = QuorumCert(view=4, digest=GENESIS_NODE_DIGEST, signers=(0, 1, 2))
    full = HsNodeData(
        digest=digest,
        view=5,
        parent_digest=GENESIS_NODE_DIGEST,
        transactions=batch,
        justify=qc,
    )
    replica._on_chain_response(2, HsChainResponse(nodes=(full,)))
    assert replica.nodes[digest].justify == qc
    # ...as does the genuine proposal for a stripped digest.
    child_digest = chain_node_digest(6, digest, batch)
    stripped_child = HsNodeData(
        digest=child_digest,
        view=6,
        parent_digest=digest,
        transactions=batch,
        justify=None,
    )
    replica._chain_requested[child_digest] = replica.view
    replica._on_chain_response(1, HsChainResponse(nodes=(stripped_child,)))
    assert replica.nodes[child_digest].justify is None
    child_qc = QuorumCert(view=5, digest=digest, signers=(1, 2, 3))
    node = replica._record_node(
        HsProposal(
            view=6,
            node_digest=child_digest,
            parent_digest=digest,
            transactions=batch,
            justify=child_qc,
        )
    )
    assert node.justify == child_qc


def test_hotstuff_counts_votes_under_the_authenticated_sender():
    """One Byzantine replica cannot mint a QC by voting under n - f names."""
    from repro.protocols.hotstuff.messages import HsProposal, HsVote
    from repro.protocols.hotstuff.replica import chain_node_digest

    cluster = SimulatedCluster.for_protocol(
        "hotstuff", num_replicas=4, clients=1, outstanding_per_client=1, batch_size=5
    )
    leader = cluster.replicas[1]  # leads view 1, so it tallies the view-0 votes
    digest = chain_node_digest(0, GENESIS_NODE_DIGEST, ())
    leader._record_node(
        HsProposal(
            view=0,
            node_digest=digest,
            parent_digest=GENESIS_NODE_DIGEST,
            transactions=(),
            justify=leader.high_qc,
        )
    )
    for claimed in (0, 2, 3):
        leader.on_message(3, HsVote(view=0, node_digest=digest, voter=claimed))
    assert leader.high_qc.view == -1
    assert leader.proposals_made == 0
    # The same three votes from their real senders do form the QC.
    for voter in (0, 2):
        leader.on_message(voter, HsVote(view=0, node_digest=digest, voter=voter))
    assert leader.high_qc.view == 0
    assert leader.high_qc.signers == (0, 2, 3)
    assert leader.proposals_made == 1


def test_hotstuff_locks_on_the_two_chain_and_refuses_a_fork_below_it():
    """safeNode with a lock that moves (Yin et al., Alg. 5): a fork below the
    lock is refused on the safety rule and accepted only on the liveness rule."""
    from repro.protocols.hotstuff.messages import HsProposal
    from repro.protocols.hotstuff.replica import chain_node_digest

    cluster = SimulatedCluster.for_protocol(
        "hotstuff", num_replicas=4, clients=2, outstanding_per_client=3, batch_size=5
    )
    cluster.run(duration=0.3)
    replica = cluster.replicas[0]
    lock = replica.locked_qc
    locked_node = replica.nodes[lock.digest]
    # Fault-free, the lock trails the newest QC by exactly one view.
    assert lock.view == replica.high_qc.view - 1 > 0
    below_lock = replica.nodes[locked_node.parent_digest]
    view = replica.view + 4
    batch = (txn(b"fork"),)

    def fork(justify):
        return HsProposal(
            view=view,
            node_digest=chain_node_digest(view, below_lock.digest, batch),
            parent_digest=below_lock.digest,
            transactions=batch,
            justify=justify,
        )

    stale_qc = locked_node.justify  # certifies the lock's parent
    assert stale_qc.view < lock.view
    replica.on_message(replica.leader_of(view), fork(stale_qc))
    assert replica.voted_view < view
    assert replica.locked_qc == lock
    replica.on_message(replica.leader_of(view), fork(replica.high_qc))
    assert replica.voted_view == view


@pytest.mark.parametrize("carrier", ["new-view", "proposal"])
@pytest.mark.parametrize("protocol", ["hotstuff", "narwhal-hs"])
def test_hotstuff_adopts_no_quorum_cert_without_a_quorum(protocol, carrier):
    """One Byzantine replica cannot pin ``high_qc`` with a forged certificate.

    A QC that names genesis and a far-future view, with no signers, used to
    be adopted from a NewView unchecked and from a proposal's justify under
    a genesis exception; every later honest QC then looked stale, so no
    leader could extend the certified chain and the cluster stopped.
    """
    from repro.protocols.hotstuff.messages import HsNewView, HsProposal
    from repro.protocols.hotstuff.replica import chain_node_digest

    cluster = SimulatedCluster.for_protocol(
        protocol, num_replicas=4, clients=3, outstanding_per_client=4, batch_size=8, seed=101
    )
    cluster.start()
    cluster.run_additional(0.3)
    confirmed = sum(client.confirmed_transactions for client in cluster.clients)
    forged = QuorumCert(view=10**9, digest=GENESIS_NODE_DIGEST, signers=())
    byzantine = 3
    victims = [replica for replica in cluster.replicas if replica.node_id != byzantine]
    before = [replica.high_qc for replica in victims]
    for replica in victims:
        if carrier == "new-view":
            message = HsNewView(view=replica.view, high_qc=forged)
        else:
            view = next(v for v in range(replica.view + 1, replica.view + 5) if replica.leader_of(v) == byzantine)
            message = HsProposal(
                view=view,
                node_digest=chain_node_digest(view, GENESIS_NODE_DIGEST, ()),
                parent_digest=GENESIS_NODE_DIGEST,
                transactions=(),
                justify=forged,
            )
        replica.on_message(byzantine, message)
    assert [replica.high_qc for replica in victims] == before
    if carrier == "proposal":
        assert all(message.node_digest not in replica.nodes for replica in victims)
    cluster.run_additional(0.3)
    # 308 / 304 were confirmed in the first 0.3 s; the forgery used to leave 1-5.
    assert sum(client.confirmed_transactions for client in cluster.clients) - confirmed > 250
    cluster.assert_no_divergence()


def test_narwhal_vote_is_heavier_than_a_hotstuff_vote():
    spotless_like = SimulatedCluster.for_protocol("hotstuff", num_replicas=4, clients=1, outstanding_per_client=1, batch_size=5)
    narwhal = SimulatedCluster.for_protocol("narwhal-hs", num_replicas=4, clients=1, outstanding_per_client=1, batch_size=5)
    spotless_like.run(duration=0.4)
    narwhal.run(duration=0.4)
    hs_replica = spotless_like.replicas[0]
    nw_replica = narwhal.replicas[0]
    from repro.protocols.hotstuff.messages import HsVote

    vote = HsVote(view=1, node_digest=b"d", voter=0)
    assert nw_replica._size_of(vote) > hs_replica._size_of(vote)


@pytest.mark.parametrize("carrier", ["new-view", "proposal", "chain-response"])
@pytest.mark.parametrize(
    "signers",
    [
        pytest.param((0, 1, 4), id="a-signer-id-is-no-replica"),
        pytest.param((1, 2, 9, 10), id="fewer-than-a-quorum-of-replicas"),
    ],
)
def test_hotstuff_rejects_a_quorum_cert_naming_signers_that_are_no_replicas(carrier, signers):
    """A QC counts only signers that are replicas (ids 0..n − 1): n − f
    distinct ids are no quorum when some of them name nobody.  A NewView's
    ``high_qc`` (``_update_high_qc``), a proposal's ``justify`` and a
    chain-response node's ``justify`` are each refused."""
    from repro.protocols.hotstuff.messages import HsChainResponse, HsNewView, HsNodeData
    from repro.protocols.hotstuff.replica import chain_node_digest

    cluster = SimulatedCluster.for_protocol(
        "hotstuff", num_replicas=4, clients=1, outstanding_per_client=1, batch_size=5
    )
    replica = cluster.replicas[0]
    forged = QuorumCert(view=10**9, digest=GENESIS_NODE_DIGEST, signers=signers)
    byzantine = 3
    before = replica.high_qc
    view = next(v for v in range(replica.view + 1, replica.view + 5) if replica.leader_of(v) == byzantine)
    digest = chain_node_digest(view, GENESIS_NODE_DIGEST, ())
    if carrier == "new-view":
        replica.on_message(byzantine, HsNewView(view=replica.view, high_qc=forged))
    elif carrier == "proposal":
        replica.on_message(
            byzantine,
            HsProposal(
                view=view, node_digest=digest, parent_digest=GENESIS_NODE_DIGEST, transactions=(), justify=forged
            ),
        )
    else:
        replica._chain_requested[digest] = replica.view
        node = HsNodeData(digest=digest, view=view, parent_digest=GENESIS_NODE_DIGEST, transactions=(), justify=forged)
        replica._on_chain_response(byzantine, HsChainResponse(nodes=(node,)))
    assert replica.high_qc is before
    assert digest not in replica.nodes
