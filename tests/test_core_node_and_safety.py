"""Integration tests for the concurrent SpotLess replica, clients and safety.

These tests run small message-level simulations (n = 4..7) and check the
concurrent-consensus architecture of Section 4/5: request-to-instance
assignment, the (view, instance) total order, no-op filling, client Informs,
and the paper's safety guarantees (including the Example 3.6 scenario that
motivates the three-consecutive-view commit rule).
"""

import pytest

from repro.bench.cluster import SimulatedCluster
from repro.core.chain import GENESIS_PROPOSAL_ID, ProposalStatus, ProposalStore
from repro.core.config import SpotLessConfig
from repro.core.instance import SpotLessInstance, ViewState
from repro.core.messages import Claim, ProposeMessage, SyncMessage
from repro.faults.injector import FaultEvent, FaultInjector
from repro.ledger.kvtable import KeyValueTable
from repro.scenarios import single_fault_spec
from repro.scenarios.runner import ScenarioRunner
from repro.sim.network import NetworkConfig
from repro.workload.requests import Operation, Transaction
from tests.transactions import txn


def small_cluster(num_replicas=4, clients=3, outstanding=4, seed=1, **config_kwargs):
    config = SpotLessConfig(num_replicas=num_replicas, **config_kwargs)
    return SimulatedCluster.spotless(
        config, clients=clients, outstanding_per_client=outstanding, seed=seed
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_quorums_and_validation():
    config = SpotLessConfig(num_replicas=7)
    assert config.f == 2
    assert config.quorum == 5
    assert config.weak_quorum == 3
    with pytest.raises(ValueError):
        SpotLessConfig(num_replicas=3)
    with pytest.raises(ValueError):
        SpotLessConfig(num_replicas=4, num_instances=9)


def test_config_defaults_to_n_instances():
    config = SpotLessConfig(num_replicas=5)
    assert config.num_instances == 5


# ---------------------------------------------------------------------------
# liveness and consistency in the failure-free case
# ---------------------------------------------------------------------------


def test_cluster_confirms_transactions_and_stays_consistent():
    cluster = small_cluster()
    result = cluster.run(duration=1.2)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 20
    assert result.mean_latency < 0.5
    assert all(replica.ledger.verify_chain() for replica in cluster.replicas)


def test_divergence_check_raises_on_a_forged_committed_slot():
    cluster = small_cluster()
    cluster.run(duration=0.3)
    forged = dict(cluster.replicas[1].committed_map())
    slot = min(forged)
    forged[slot] = bytes(32)
    cluster.replicas[1].committed_map = lambda: forged
    with pytest.raises(AssertionError, match=r"^\[agreement @"):
        cluster.assert_no_divergence()


def test_divergence_check_raises_on_a_forged_executed_order():
    cluster = small_cluster()
    cluster.run(duration=0.3)
    executed = cluster.replicas[1].executed_transaction_digests()
    assert len(executed) >= 2 and executed[0] != executed[1]
    forged = [executed[1], executed[0], *executed[2:]]
    cluster.replicas[1].executed_transaction_digests = lambda: forged
    with pytest.raises(AssertionError, match=r"^\[no-fork @"):
        cluster.assert_no_divergence()


def test_seven_replica_cluster_with_default_instances():
    cluster = small_cluster(num_replicas=7, clients=4, outstanding=6)
    result = cluster.run(duration=0.6)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 20


def test_fewer_instances_than_replicas_still_commits():
    cluster = small_cluster(num_instances=2)
    result = cluster.run(duration=1.5)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 10


def test_requests_routed_to_instance_matching_digest():
    cluster = small_cluster()
    replica = cluster.replicas[0]
    transaction = Transaction(client_id=9, sequence=1, operations=(Operation.read(5),))
    replica.submit_transaction(transaction)
    expected = transaction.instance_assignment(replica.config.num_instances)
    assert replica.mempool.pending_count(expected) == 1


def test_duplicate_submission_is_ignored():
    cluster = small_cluster()
    replica = cluster.replicas[0]
    transaction = Transaction(client_id=9, sequence=1, operations=(Operation.read(5),))
    replica.submit_transaction(transaction)
    replica.submit_transaction(transaction)
    instance = transaction.instance_assignment(replica.config.num_instances)
    assert replica.mempool.pending_count(instance) == 1


def test_idle_instances_propose_empty_batches():
    cluster = small_cluster(clients=0)
    cluster.start()
    cluster.simulator.run_for(0.5)
    # Without client load every committed batch is a no-op, an empty one:
    # execution passes the views they fill, yet runs nothing, writes
    # nothing and appends no block.
    for replica in cluster.replicas:
        committed = [p for i in replica.instances.values() for p in i.store.committed]
        assert committed and all(p.message.transactions == () for p in committed)
        assert replica.pipeline.next_execution_position > 10
        assert replica.ledger.height == 0
        assert replica.table.state_digest() == KeyValueTable().state_digest()
        assert replica.state_digest() == cluster.replicas[0].state_digest()
    cluster.assert_no_divergence()


def _proposals_carrying(replica, instance_id, request):
    return sorted(
        proposal.view
        for proposal in replica.instances[instance_id].store.proposals()
        if proposal.message is not None and request in proposal.message.transactions
    )


def test_accepted_requests_are_proposed_once():
    """Every replica holds every request (Section 6.1), but once one
    accepted a proposal carrying it, no later primary proposes it again."""
    cluster = SimulatedCluster.for_protocol(
        "spotless", num_replicas=4, batch_size=10, clients=16, outstanding_per_client=2, seed=1
    )
    result = cluster.run(duration=0.5)
    slots = 0
    for replica in cluster.replicas:
        for instance in replica.instances.values():
            for proposal in instance.store.proposals():
                if proposal.message is None or instance.primary_of_view(proposal.view) != replica.node_id:
                    continue
                slots += len(proposal.message.transactions)
    assert result.confirmed_transactions > 1000
    # 3.79 slots per confirmed transaction while backups re-proposed
    # whatever was still in flight.
    assert slots / result.confirmed_transactions <= 1.1


def test_abandoned_proposal_requests_are_proposed_again_once():
    """A request whose accepted proposal is orphaned goes back to the queue
    once the instance's frontier passes that view, with no client to
    retransmit it, and is proposed again exactly once."""
    cluster = small_cluster(clients=0)
    request = Transaction(client_id=9, sequence=1, operations=(Operation.write(7, b"x"),))
    instance_id = request.instance_assignment(4)

    def extend_genesis(sender, receiver, message):
        # The primary of view 1 extends genesis, not the view-0 proposal
        # every replica accepted, so the view-0 proposal never commits.
        if (
            isinstance(message, ProposeMessage)
            and message.instance == instance_id
            and message.view == 1
            and message.parent_digest != GENESIS_PROPOSAL_ID
        ):
            return ProposeMessage(
                instance=instance_id,
                view=1,
                transactions=message.transactions,
                parent_digest=GENESIS_PROPOSAL_ID,
                parent_view=-1,
            )
        return None

    cluster.network.add_rewrite_rule(extend_genesis)
    for replica in cluster.replicas:
        replica.submit_transaction(request)
    cluster.start()
    cluster.simulator.run_for(0.5)
    cluster.assert_no_divergence()
    digest = request.digest()
    (abandoned,) = cluster.replicas[0].instances[instance_id].store.proposals_in_view(0)
    assert abandoned.message.transactions == (request,)
    assert abandoned.status is not ProposalStatus.COMMITTED
    for replica in cluster.replicas:
        # Proposed in view 0, then once more after the frontier passed it.
        views = _proposals_carrying(replica, instance_id, request)
        assert len(views) == 2 and views[0] == 0, views
        assert replica.executed_transaction_digests().count(digest) == 1


def test_fast_path_proposes_no_early_noop_while_only_in_flight_requests_are_queued():
    """The next primary still queues the request the view-0 proposal carries
    (accepted digests leave the queue lazily), yet has nothing to propose:
    the Section 6.1 fast path must not fire with a no-op."""
    cluster = small_cluster(clients=0, enable_fast_path=True)
    request = Transaction(client_id=9, sequence=1, operations=(Operation.write(7, b"x"),))
    for replica in cluster.replicas:
        replica.submit_transaction(request)
    cluster.start()
    cluster.simulator.run_for(0.3)
    cluster.assert_no_divergence()
    for replica in cluster.replicas:
        assert replica.executed_transaction_digests() == [request.digest()]
        assert all(instance.fast_path_proposals == 0 for instance in replica.instances.values())


def test_replica_state_digests_match_at_equal_ledger_heights():
    cluster = small_cluster()
    cluster.run(duration=1.0)
    by_height = {}
    for replica in cluster.replicas:
        by_height.setdefault(len(replica.ledger), []).append(replica.state_digest())
    for digests in by_height.values():
        assert len(set(digests)) == 1


def test_client_failover_retransmits_after_timeout():
    cluster = small_cluster()
    client = cluster.clients[0]
    client.request_timeout = 0.05
    cluster.start()
    # Crash enough replicas to stall everything, forcing client retries.
    for replica_id in (0, 1, 2):
        cluster.network.set_node_down(replica_id)
    cluster.simulator.run_for(0.5)
    assert client.retransmissions > 0


# ---------------------------------------------------------------------------
# behaviour under crash faults and partitions
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# a replica keeps its instances in step
# ---------------------------------------------------------------------------


def _started_replica():
    """Replica 0 of an n = 4 cell, every instance in view 0, nothing delivered."""
    cluster = small_cluster()
    replica = cluster.replicas[0]
    replica.start()
    return replica, replica.instances


def test_an_instance_is_held_until_every_sibling_has_entered_its_view():
    replica, instances = _started_replica()
    lead = instances[1]
    lead._advance_view(1, fast=True)
    # View 1's quorum completes while instances 0, 2 and 3 are in view 0.
    lead._advance_view(2, fast=True)
    assert replica.instance_views() == {0: 0, 1: 1, 2: 0, 3: 0}
    assert not lead._recording_timer.running and not lead._certifying_timer.running
    for instance_id in (0, 2):
        instances[instance_id]._advance_view(1, fast=True)
        assert lead.current_view == 1
    # The last sibling enters view 1: the held instance enters view 2.
    instances[3]._advance_view(1, fast=True)
    assert replica.instance_views() == {0: 1, 1: 2, 2: 1, 3: 1}
    assert lead.state is ViewState.RECORDING and lead._recording_timer.running
    # View 3 waits for view 2 in every instance again.
    lead._advance_view(3, fast=True)
    assert lead.current_view == 2


def test_a_held_instance_skips_on_f_plus_1_higher_views_and_stays_counted():
    replica, instances = _started_replica()
    lead = instances[1]
    lead._advance_view(1, fast=True)
    lead._advance_view(2, fast=True)
    assert lead.current_view == 1
    for sender in (2, 3):
        lead.on_sync(sender, SyncMessage(instance=1, view=5, claim=Claim.failure(5)))
    assert lead.current_view == 5 and lead.view_skips == 1
    # It is no longer held: the siblings' entries do not move it again.
    for instance_id in (0, 2, 3):
        instances[instance_id]._advance_view(1, fast=True)
    assert replica.instance_views() == {0: 1, 1: 5, 2: 1, 3: 1}
    for instance_id in (0, 2, 3):
        instances[instance_id]._advance_view(2, fast=True)
    assert replica.instance_views() == {0: 2, 1: 5, 2: 2, 3: 2}


def test_instance_views_stay_within_one_view_of_each_other():
    cluster = SimulatedCluster.for_protocol(
        "spotless", 4, batch_size=10, clients=16, outstanding_per_client=2, seed=1
    )
    cluster.start()
    for _ in range(15):
        cluster.run_additional(0.02)
        for replica in cluster.replicas:
            views = replica.instance_views().values()
            assert max(views) - min(views) <= 1, (replica.node_id, cluster.simulator.now)
    assert min(cluster.replicas[0].instance_views().values()) > 50
    cluster.assert_no_divergence()


def test_progress_with_one_crashed_replica():
    cluster = small_cluster(num_replicas=4, clients=3, recording_timeout=0.03, certifying_timeout=0.03)
    FaultInjector(cluster).schedule(FaultEvent(kind="crash", at=0.0, replicas=(3,)))
    result = cluster.run(duration=1.5)
    cluster.assert_no_divergence()
    assert result.confirmed_transactions > 5


def test_certifying_timeout_stays_bounded_under_a_crashed_primary():
    # Every view replica 3 leads ends on n − f failure claims, so t_A never
    # expires there, and each healthy view's fast advance shrinks it.
    cluster = SimulatedCluster.for_protocol(
        "spotless", 4, batch_size=10, clients=4, outstanding_per_client=8, seed=1
    )
    FaultInjector(cluster).schedule(FaultEvent(kind="crash", at=0.0, replicas=(3,)))
    cluster.run(duration=1.5)
    cluster.assert_no_divergence()
    for replica in cluster.replicas[:3]:
        for instance in replica.instances.values():
            assert instance._certifying_timeout.interval <= instance.config.certifying_timeout
            assert instance.current_view > 100


def test_crash_mid_run_keeps_consistency_and_reduces_throughput():
    cluster = small_cluster(num_replicas=4, clients=4, outstanding=6)
    FaultInjector(cluster).schedule(FaultEvent(kind="crash", at=0.5, replicas=(2,)))
    cluster.start()
    cluster.simulator.run_for(0.5)
    healthy_confirmed = sum(c.confirmed_transactions for c in cluster.clients)
    cluster.simulator.run_for(1.5)
    cluster.assert_no_divergence()
    total_confirmed = sum(c.confirmed_transactions for c in cluster.clients)
    assert total_confirmed >= healthy_confirmed


def test_partition_heals_and_progress_resumes():
    cluster = small_cluster(num_replicas=4, clients=3, recording_timeout=0.03, certifying_timeout=0.03)
    FaultInjector(cluster).schedule(
        FaultEvent(kind="partition", at=0.2, until=0.6, groups=((0, 1), (2, 3)))
    )
    cluster.start()
    cluster.simulator.run_for(2.0)
    cluster.assert_no_divergence()
    confirmed = sum(c.confirmed_transactions for c in cluster.clients)
    assert confirmed > 5


def test_safety_holds_even_when_liveness_is_lost():
    # Crash f+1 replicas: no quorum is possible, so nothing new commits, but
    # what was committed stays consistent.
    cluster = small_cluster(num_replicas=4, clients=3)
    cluster.start()
    cluster.simulator.run_for(0.3)
    for replica_id in (2, 3):
        cluster.network.set_node_down(replica_id)

    def commits():
        return [
            sum(instance.committed_count() for instance in replica.instances.values())
            for replica in cluster.replicas[:2]
        ]

    committed_before = commits()
    cluster.simulator.run_for(0.5)
    cluster.assert_no_divergence()
    committed_after = commits()
    # With only 2 of 4 replicas alive no new three-view chains can complete
    # far beyond what was in flight.
    assert all(after >= before for before, after in zip(committed_before, committed_after))


@pytest.mark.parametrize("fault", ["A2", "A1", "crash", "partition"])
def test_a_stable_checkpoint_leaves_only_unanswered_keys_in_the_ask_latch(fault, monkeypatch):
    """Ask-recovery's latch is bounded: each compaction at a stable checkpoint
    drops every key whose payload arrived, so what it keeps is what is still
    missing, not every proposal ever asked for."""
    compactions = []
    compact = SpotLessInstance.compact_below_view

    def checked(instance, floor_view):
        compact(instance, floor_view)
        answered = [key for key in instance._asks._outstanding if instance._has_payload(key)]
        compactions.append(floor_view)
        assert answered == []

    monkeypatch.setattr(SpotLessInstance, "compact_below_view", checked)
    runner = ScenarioRunner(single_fault_spec("spotless", fault, f=2))
    assert runner.run().ok
    assert compactions


# ---------------------------------------------------------------------------
# Example 3.6: the three-consecutive-view rule is necessary
# ---------------------------------------------------------------------------


def _propose(view, parent, payload):
    return ProposeMessage(
        instance=0,
        view=view,
        transactions=(txn(payload),),
        parent_digest=parent.digest,
        parent_view=parent.view,
    )


def test_example_3_6_two_view_rule_would_commit_conflicting_proposals():
    """Reproduce the schedule of Example 3.6 on two replicas' stores.

    Under the paper's three-consecutive-view rule neither replica commits the
    conflicting proposals P1/P2; under a (hypothetical) two-view rule both
    would have been committed, which is exactly the anomaly the example
    demonstrates.
    """
    store_r1 = ProposalStore()   # the replica that conditionally prepares P5
    store_rest = ProposalStore()  # the replicas that follow the P2 branch

    # Everyone conditionally prepared P0.
    p0_message = _propose(0, store_r1.genesis, b"p0")
    p0_r1 = store_r1.record_message(p0_message)
    p0_rest = store_rest.record_message(p0_message)
    store_r1.mark_conditionally_prepared(p0_r1)
    store_rest.mark_conditionally_prepared(p0_rest)

    # Views 1 and 2: P1 extends P0, P2 extends P0 (both conditionally prepared).
    p1_message = _propose(1, p0_r1, b"p1")
    p2_message = _propose(2, p0_r1, b"p2")
    p1_r1 = store_r1.record_message(p1_message)
    p2_r1 = store_r1.record_message(p2_message)
    store_r1.mark_conditionally_prepared(p1_r1)
    store_r1.mark_conditionally_prepared(p2_r1)
    p1_rest = store_rest.record_message(p1_message)
    p2_rest = store_rest.record_message(p2_message)
    store_rest.mark_conditionally_prepared(p1_rest)
    store_rest.mark_conditionally_prepared(p2_rest)

    # View 4: P4 extends P1; only the "rest" group conditionally prepares it.
    p4_message = _propose(4, p1_rest, b"p4")
    p4_rest = store_rest.record_message(p4_message)
    store_rest.mark_conditionally_prepared(p4_rest)

    # View 5: the faulty primary gets only R1 to conditionally prepare P5
    # (P5 extends P4): under a two-view rule R1 would now commit P1.
    p5_message = _propose(5, p4_rest, b"p5")
    store_r1.record_message(p4_message)
    p5_r1 = store_r1.record_message(p5_message)
    store_r1.mark_conditionally_prepared(store_r1.get(p4_rest.digest))
    store_r1.mark_conditionally_prepared(p5_r1)

    # View 3/6: P3 extends P2 and P6 extends P3; the rest of the replicas
    # conditionally prepare P6: under a two-view rule they would commit P2.
    p3_message = _propose(3, p2_rest, b"p3")
    p3_rest = store_rest.record_message(p3_message)
    store_rest.mark_conditionally_prepared(p3_rest)
    p6_message = _propose(6, p3_rest, b"p6")
    p6_rest = store_rest.record_message(p6_message)
    store_rest.mark_conditionally_prepared(p6_rest)

    p1_committed_by_r1 = store_r1.get(p1_rest.digest).status == ProposalStatus.COMMITTED
    p2_committed_by_rest = store_rest.get(p2_rest.digest).status == ProposalStatus.COMMITTED
    # The three-consecutive-view rule commits neither conflicting proposal.
    assert not p1_committed_by_r1
    assert not p2_committed_by_rest
    # A two-consecutive-view rule *would* have committed both: each proposal
    # has a conditionally prepared child extending it.
    two_view_commit_p1 = store_r1.get(p4_rest.digest).status >= ProposalStatus.CONDITIONALLY_PREPARED
    two_view_commit_p2 = p3_rest.status >= ProposalStatus.CONDITIONALLY_PREPARED
    assert two_view_commit_p1 and two_view_commit_p2
    assert store_rest.conflicts(p1_rest, p2_rest)
