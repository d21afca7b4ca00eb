"""Tests for the ablations' protocol variants and the paper's own switches.

Covers the variant classes of ``repro.bench.ablations`` (the two-view commit
rule of Example 3.6 on the ablation's own store, the GST-style pacemaker, the
exponential back-off timer and the RCC-style client-to-instance binding), the
Section 6.1 geo fast path, and the Υ retransmission hardening that keeps
Rapid View Synchronization from looping.
"""

import pytest

from repro.bench.ablations import (
    BackoffInstance,
    BackoffReplica,
    ClientBoundReplica,
    ExponentialBackoff,
    GstPacemakerInstance,
    GstPacemakerReplica,
    TwoViewStore,
)
from repro.bench.cluster import SimulatedCluster
from repro.core.chain import ProposalStatus, ProposalStore
from repro.core.config import SpotLessConfig
from repro.core.instance import SpotLessInstance, ViewState
from repro.core.messages import Claim, ProposeMessage, SyncMessage
from repro.core.node import SpotLessReplica
from repro.core.timeouts import AdaptiveTimeout
from repro.workload.requests import Operation, Transaction

from tests.test_core_instance import Harness
from tests.transactions import txn


# ---------------------------------------------------------------------------
# the paper's defaults, and the shape of each ablation variant
# ---------------------------------------------------------------------------


def test_config_defaults_match_the_paper():
    config = SpotLessConfig(num_replicas=4)
    assert config.enable_fast_path is False


def _own_names(cls):
    return {name for name in vars(cls) if not (name.startswith("__") and name.endswith("__"))}


@pytest.mark.parametrize(
    "variant, overrides",
    [
        (TwoViewStore, {"_apply_prepare_consequences", "_commit_chain"}),
        (GstPacemakerInstance, {"_maybe_skip_views"}),
        (BackoffInstance, set()),
        (GstPacemakerReplica, {"instance_class"}),
        (BackoffReplica, {"instance_class"}),
        (ClientBoundReplica, {"_assign_shard"}),
    ],
)
def test_each_ablation_variant_overrides_only_what_it_names(variant, overrides):
    # A variant changes one rule of the protocol; it must not grow into a
    # second copy of it.
    assert _own_names(variant) == overrides


def test_variant_replicas_build_their_variant_instances():
    config = SpotLessConfig(num_replicas=4, num_instances=2)
    for replica_class, instance_class in (
        (SpotLessReplica, SpotLessInstance),
        (GstPacemakerReplica, GstPacemakerInstance),
        (BackoffReplica, BackoffInstance),
    ):
        cluster = SimulatedCluster.build(replica_class, config, clients=1, outstanding_per_client=1)
        for replica in cluster.replicas:
            assert {type(instance) for instance in replica.instances.values()} == {instance_class}


# ---------------------------------------------------------------------------
# the two-view commit rule of the ablation's store against the paper's rule
# ---------------------------------------------------------------------------


def _chain_on(store: ProposalStore, views, tag="x"):
    parent = store.genesis
    proposals = []
    for view in views:
        message = ProposeMessage(
            instance=0,
            view=view,
            transactions=(txn(f"{tag}:{view}".encode()),),
            parent_digest=parent.digest,
            parent_view=parent.view,
        )
        proposal = store.record_message(message)
        store.mark_conditionally_prepared(proposal)
        parent = proposal
        proposals.append(proposal)
    return proposals


def test_two_view_rule_commits_parent_on_consecutive_child():
    store = TwoViewStore()
    first, second = _chain_on(store, (1, 2))
    assert first.status == ProposalStatus.COMMITTED
    assert second.status == ProposalStatus.CONDITIONALLY_PREPARED


def test_three_view_rule_needs_three_consecutive_views():
    store = ProposalStore()
    first, second = _chain_on(store, (1, 2))
    assert first.status == ProposalStatus.CONDITIONALLY_COMMITTED
    assert not store.committed
    (third,) = _chain_on_extend(store, second, 3)
    assert first.status == ProposalStatus.COMMITTED


def _chain_on_extend(store: ProposalStore, parent, view, tag="x"):
    message = ProposeMessage(
        instance=0,
        view=view,
        transactions=(txn(f"{tag}:{view}".encode()),),
        parent_digest=parent.digest,
        parent_view=parent.view,
    )
    proposal = store.record_message(message)
    store.mark_conditionally_prepared(proposal)
    return [proposal]


def test_two_view_rule_skips_commit_when_views_not_consecutive():
    store = TwoViewStore()
    first, second = _chain_on(store, (1, 4))
    assert first.status == ProposalStatus.CONDITIONALLY_COMMITTED
    assert not store.committed


def test_two_view_commits_are_a_superset_of_three_view_commits():
    """Whatever the safe rule commits, the unsafe rule also commits."""
    views = (1, 2, 3, 5, 6, 7)
    three = ProposalStore()
    two = TwoViewStore()
    _chain_on(three, views)
    _chain_on(two, views)
    committed_three = {p.view for p in three.committed}
    committed_two = {p.view for p in two.committed}
    assert committed_three <= committed_two


# ---------------------------------------------------------------------------
# the GST-style pacemaker instance disables the f+1 view skip
# ---------------------------------------------------------------------------


def _sync(view, digest=None, instance=0):
    claim = Claim(view=view, digest=digest) if digest is not None else Claim.failure(view)
    return SyncMessage(instance=instance, view=view, claim=claim)


def test_rvs_mode_skips_ahead_on_f_plus_1_higher_views():
    harness = Harness(num_replicas=4)
    harness.start([0])
    target = harness.instances[0]
    target.on_sync(1, _sync(7))
    target.on_sync(2, _sync(9))
    assert target.current_view >= 7
    assert target.view_skips >= 1


def test_gst_mode_never_skips_views():
    harness = Harness(num_replicas=4, instance_class=GstPacemakerInstance)
    harness.start([0])
    target = harness.instances[0]
    target.on_sync(1, _sync(7))
    target.on_sync(2, _sync(9))
    target.on_sync(3, _sync(11))
    assert target.current_view == 0
    assert target.view_skips == 0


def test_gst_mode_still_advances_through_quorum_progress():
    harness = Harness(num_replicas=4, instance_class=GstPacemakerInstance)
    harness.start()
    harness.deliver_all()
    assert all(instance.current_view >= 1 for instance in harness.instances.values())


# ---------------------------------------------------------------------------
# the timer type: adaptive in the protocol, back-off in the ablation
# ---------------------------------------------------------------------------


def test_adaptive_policy_is_the_default_timer_type():
    harness = Harness(num_replicas=4)
    assert isinstance(harness.instances[0]._recording_timeout, AdaptiveTimeout)


def test_exponential_policy_swaps_the_timer_type_and_doubles():
    harness = Harness(num_replicas=4, instance_class=BackoffInstance, recording_timeout=0.1)
    timer = harness.instances[0]._recording_timeout
    assert isinstance(timer, ExponentialBackoff)
    assert isinstance(harness.instances[0]._certifying_timeout, ExponentialBackoff)
    start = timer.interval
    timer.on_timeout()
    timer.on_timeout()
    assert timer.interval == pytest.approx(start * 4)


# ---------------------------------------------------------------------------
# request-to-instance assignment: by digest, or bound per client
# ---------------------------------------------------------------------------


def _transaction(client_id, sequence):
    return Transaction(
        client_id=client_id,
        sequence=sequence,
        operations=(Operation.write(sequence, b"v" * 8),),
    )


def _fresh_replica(replica_class):
    config = SpotLessConfig(num_replicas=4, num_instances=4)
    cluster = SimulatedCluster.build(replica_class, config, clients=1, outstanding_per_client=1)
    return cluster.replicas[0]


def _pending_per_instance(replica):
    return {i: replica.mempool.pending_count(i) for i in range(replica.config.num_instances)}


def test_client_assignment_binds_each_client_to_one_instance():
    replica = _fresh_replica(ClientBoundReplica)
    for sequence in range(6):
        replica.submit_transaction(_transaction(client_id=1, sequence=sequence))
    pending = _pending_per_instance(replica)
    assert pending[1] == 6
    assert sum(count for instance, count in pending.items() if instance != 1) == 0


def test_digest_assignment_spreads_one_clients_requests():
    replica = _fresh_replica(SpotLessReplica)
    for sequence in range(32):
        replica.submit_transaction(_transaction(client_id=1, sequence=sequence))
    pending = _pending_per_instance(replica)
    used_instances = [instance for instance, count in pending.items() if count > 0]
    assert len(used_instances) >= 2
    assert sum(pending.values()) == 32


def test_digest_assignment_matches_transaction_instance_assignment():
    replica = _fresh_replica(SpotLessReplica)
    transaction = _transaction(client_id=3, sequence=0)
    replica.submit_transaction(transaction)
    expected = transaction.instance_assignment(4)
    assert replica.mempool.pending_count(expected) == 1


# ---------------------------------------------------------------------------
# geo fast path (Section 6.1)
# ---------------------------------------------------------------------------


def test_fast_path_primary_proposes_before_entering_the_view():
    harness = Harness(num_replicas=4, enable_fast_path=True)
    # Queue a real batch at the replica that will be primary of view 1, so
    # the fast path has something useful to propose.
    harness.batches[1].append((txn(b"fast-batch"),))
    harness.start()
    harness.deliver_all()
    primary_of_view_1 = harness.instances[1]
    assert primary_of_view_1.fast_path_proposals >= 1


def test_fast_path_disabled_by_default():
    harness = Harness(num_replicas=4)
    harness.start()
    harness.deliver_all()
    assert all(instance.fast_path_proposals == 0 for instance in harness.instances.values())


def test_fast_path_poisoned_by_f_plus_1_failure_claims():
    harness = Harness(num_replicas=4, enable_fast_path=True)
    harness.start([0])
    target = harness.instances[0]
    assert target._fast_path_active
    target.on_sync(1, _sync(0, digest=None))
    target.on_sync(2, _sync(0, digest=None))
    assert not target._fast_path_active


def test_fast_path_poisoned_by_own_recording_timeout():
    harness = Harness(num_replicas=4, enable_fast_path=True)
    harness.start([3])  # replica 3 is a backup in view 0
    target = harness.instances[3]
    assert target._fast_path_active
    harness.fire_timers(3)
    assert not target._fast_path_active


def test_fast_path_skips_proposing_when_no_client_work_is_pending():
    harness = Harness(num_replicas=4, enable_fast_path=True)
    # Mark "no pending work" for every replica: the default harness batch
    # factory always fabricates a batch, so gate it via has_pending.
    for instance in harness.instances.values():
        instance.env.has_pending = lambda instance_id: False
    harness.start()
    harness.deliver_all()
    assert all(instance.fast_path_proposals == 0 for instance in harness.instances.values())


# ---------------------------------------------------------------------------
# Υ retransmission hardening (regression tests for the catch-up loop)
# ---------------------------------------------------------------------------


def test_retransmitted_sync_does_not_carry_the_retransmit_flag():
    harness = Harness(num_replicas=4)
    harness.start()
    harness.deliver_all()
    target = harness.instances[0]
    # The highest view it synced: past Recording, the current one.
    synced_view = target.current_view if target.state is not ViewState.RECORDING else target.current_view - 1
    harness.queues.clear()
    flagged = SyncMessage(
        instance=0,
        view=synced_view,
        claim=Claim.failure(synced_view),
        retransmit_flag=True,
    )
    target.on_sync(2, flagged)
    replies = [message for _s, receiver, message in harness.queues if receiver == 2]
    assert replies, "the Υ flag should trigger a retransmission to the requester"
    assert all(
        not reply.retransmit_flag for reply in replies if isinstance(reply, SyncMessage)
    )


def test_retransmission_served_once_per_requester_and_never_to_self():
    harness = Harness(num_replicas=4)
    harness.start()
    harness.deliver_all()
    target = harness.instances[0]
    # The highest view it synced: past Recording, the current one.
    synced_view = target.current_view if target.state is not ViewState.RECORDING else target.current_view - 1
    flagged = SyncMessage(
        instance=0,
        view=synced_view,
        claim=Claim.failure(synced_view),
        retransmit_flag=True,
    )
    harness.queues.clear()
    target.on_sync(2, flagged)
    first_batch = len(harness.queues)
    target.on_sync(2, flagged)
    assert len(harness.queues) == first_batch, "repeated Υ requests are not re-served"
    harness.queues.clear()
    target.on_sync(0, flagged)  # a self-addressed request must be ignored
    assert not [m for _s, receiver, m in harness.queues if receiver == 0 and isinstance(m, SyncMessage)]


def test_lagging_replica_catches_up_without_retransmission_ping_pong():
    """A replica that missed several views catches up through RVS.

    This is the regression scenario for the Υ retransmission loop: the
    lagging replica broadcasts flagged catch-up Syncs for every missed view
    and the responses must bring it level with the rest of the group instead
    of bouncing flagged messages back and forth.
    """
    harness = Harness(num_replicas=4)
    harness.start()
    # Drop everything sent to replica 3 for a while so it falls behind.
    for _ in range(4):
        harness.deliver_all(drop=lambda sender, receiver, message: receiver == 3)
        harness.fire_timers()
    views_before = {r: harness.instances[r].current_view for r in range(4)}
    assert views_before[3] < max(views_before.values())
    # A bounded number of delivery rounds must be enough to catch up; the
    # protocol keeps making normal-case progress, so compare lag, not quiescence.
    harness.deliver_all(max_rounds=50)
    views_after = {r: harness.instances[r].current_view for r in range(4)}
    lag = max(views_after.values()) - views_after[3]
    assert lag <= 2
