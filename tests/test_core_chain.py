"""Tests for the proposal chain store and the Definition 3.3 relations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import GENESIS_PROPOSAL_ID, ProposalStatus, ProposalStore
from repro.core.messages import ProposeMessage
from tests.transactions import txn


def propose(view, parent_digest, parent_view, instance=0, payload=b"tx"):
    """Helper building a Propose message for the chain tests."""
    return ProposeMessage(
        instance=instance,
        view=view,
        transactions=(txn(payload + bytes([view % 256])),),
        parent_digest=parent_digest,
        parent_view=parent_view,
    )


def extend_chain(store, views, start_digest=GENESIS_PROPOSAL_ID, start_view=-1):
    """Record and conditionally prepare a linear chain across ``views``."""
    committed = []
    parent_digest, parent_view = start_digest, start_view
    proposals = []
    for view in views:
        message = propose(view, parent_digest, parent_view)
        proposal = store.record_message(message)
        committed.extend(store.mark_conditionally_prepared(proposal))
        proposals.append(proposal)
        parent_digest, parent_view = proposal.digest, proposal.view
    return proposals, committed


def test_genesis_is_committed_and_locked_initially():
    store = ProposalStore()
    assert store.genesis.status == ProposalStatus.COMMITTED
    assert store.lock.is_genesis
    assert store.depth(store.genesis) == 0


def test_record_message_is_idempotent():
    store = ProposalStore()
    message = propose(0, GENESIS_PROPOSAL_ID, -1)
    first = store.record_message(message)
    second = store.record_message(message)
    assert first is second
    assert message.digest() == first.digest


def test_precedes_and_depth_follow_the_chain():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2, 3])
    # precedes(P) includes the genesis proposal, so the depth of the fourth
    # proposal on the chain is 4.
    assert store.depth(proposals[3]) == 4
    assert [p.view for p in store.precedes_chain(proposals[3])] == [2, 1, 0, -1]
    assert store.extends(proposals[3], proposals[0])
    assert not store.extends(proposals[0], proposals[3])


def test_conflicting_branches_detected():
    store = ProposalStore()
    root = store.record_message(propose(0, GENESIS_PROPOSAL_ID, -1))
    store.mark_conditionally_prepared(root)
    left = store.record_message(propose(1, root.digest, 0, payload=b"left"))
    right = store.record_message(propose(1, root.digest, 0, payload=b"right"))
    assert store.conflicts(left, right)
    assert not store.conflicts(left, root)


def test_conditional_prepare_promotes_parent_to_conditional_commit_and_lock():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1])
    assert proposals[0].status == ProposalStatus.CONDITIONALLY_COMMITTED
    assert store.lock is proposals[0]


def test_three_consecutive_views_commit_the_grandparent():
    store = ProposalStore()
    proposals, committed = extend_chain(store, [0, 1, 2])
    assert proposals[0].status == ProposalStatus.COMMITTED
    assert [p.view for p in committed] == [0]
    assert store.committed == [proposals[0]]


def test_non_consecutive_views_do_not_commit():
    store = ProposalStore()
    proposals, committed = extend_chain(store, [0, 2, 4])
    assert committed == []
    assert proposals[0].status == ProposalStatus.CONDITIONALLY_COMMITTED
    assert proposals[0].status < ProposalStatus.COMMITTED


def test_commit_cascades_to_all_uncommitted_ancestors():
    store = ProposalStore()
    proposals, committed = extend_chain(store, [0, 2, 5, 6, 7])
    # Views 5,6,7 are consecutive, so the view-5 proposal commits together
    # with its (previously only conditionally committed) ancestors 0 and 2.
    assert [p.view for p in committed] == [0, 2, 5]
    assert proposals[2].status == ProposalStatus.COMMITTED


def test_acceptance_rules_a1_a2_a3():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2, 3])
    lock = store.lock
    assert lock.view == 2
    # A1 fails: parent unknown.
    unknown_parent = propose(4, b"\x11" * 32, 3)
    assert not store.is_acceptable(unknown_parent)
    # A1 + A2: extends the lock through view 3.
    good = propose(4, proposals[3].digest, 3)
    assert store.is_acceptable(good)
    # A1 holds but parent is older than the lock and not on the lock's chain.
    side = store.record_message(propose(1, proposals[0].digest, 0, payload=b"side"))
    store.mark_conditionally_prepared(side)
    stale = propose(5, side.digest, 1)
    assert not store.is_acceptable(stale)


def test_acceptance_liveness_rule_allows_higher_view_parent():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2])
    # Lock is at view 1 now; a conflicting parent from a *higher* view than
    # the lock satisfies A3 even though it does not extend the lock (A2).
    other = store.record_message(propose(3, proposals[0].digest, 0, payload=b"fork"))
    store.mark_conditionally_prepared(other)
    assert store.lock.view == 1
    candidate = propose(4, other.digest, 3)
    assert store.is_acceptable(candidate)


def test_cp_set_contains_lock_and_higher_conditionally_prepared_proposals():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2, 3])
    cp = store.cp_set()
    views = sorted(entry.view for entry in cp)
    assert store.lock.view in views
    assert all(view >= store.lock.view for view in views)
    assert proposals[3].digest in {entry.digest for entry in cp}


def test_cp_set_empty_chain_has_no_entries():
    store = ProposalStore()
    assert store.cp_set() == ()


def test_record_reference_and_missing_payload_tracking():
    store = ProposalStore()
    reference = store.record_reference(b"\x22" * 32, view=4)
    store.mark_conditionally_prepared(reference)
    assert store.conditionally_prepared_in_view(4) is reference
    assert not reference.has_payload()


def test_reference_payload_attached_later():
    store = ProposalStore()
    message = propose(0, GENESIS_PROPOSAL_ID, -1)
    digest = message.digest()
    reference = store.record_reference(digest, view=0)
    assert not reference.has_payload()
    recorded = store.record_message(message)
    assert recorded is reference
    assert reference.has_payload()


def test_recheck_commits_applies_a_link_filled_after_the_prepare():
    # A <- B <- C in views 0, 1, 2; C was prepared while known by reference
    # only, so its prepare could not reach B or A.
    store = ProposalStore()
    (first, second), committed = extend_chain(store, [0, 1])
    assert committed == [] and store.lock is first
    message = propose(2, second.digest, 1)
    third = store.record_reference(message.digest(), view=2)
    assert store.mark_conditionally_prepared(third) == []
    # Filling the link applies none of its consequences by itself.
    assert store.record_message(message) is third
    assert store.committed == [] and store.lock is first
    assert second.status == ProposalStatus.CONDITIONALLY_PREPARED
    # The recheck does: B is locked, and three consecutive views commit A.
    assert store.recheck_commits() == [first]
    assert store.committed == [first] and first.status == ProposalStatus.COMMITTED
    assert store.lock is second and second.status == ProposalStatus.CONDITIONALLY_COMMITTED
    assert store.recheck_commits() == []


def test_highest_conditionally_prepared_and_per_view_lookup():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2])
    assert store.highest_conditionally_prepared() is proposals[2]
    assert store.conditionally_prepared_in_view(1) is proposals[1]
    assert store.conditionally_prepared_in_view(9) is None


def test_status_never_downgrades():
    store = ProposalStore()
    proposals, _ = extend_chain(store, [0, 1, 2])
    committed = proposals[0]
    assert committed.status == ProposalStatus.COMMITTED
    store.mark_conditionally_prepared(committed)
    assert committed.status == ProposalStatus.COMMITTED


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30))
@settings(max_examples=50)
def test_chain_commit_invariants_hold_for_arbitrary_view_gaps(view_steps):
    """Property: commits only happen for three-consecutive-view chains, the
    committed sequence is a prefix of the chain, and the lock is always the
    highest conditionally committed proposal."""
    store = ProposalStore()
    views = []
    current = 0
    for step in view_steps:
        current += step
        views.append(current)
    proposals, _ = extend_chain(store, views)

    committed_views = [p.view for p in store.committed]
    assert committed_views == sorted(committed_views)
    # Every committed proposal (except via cascade) is justified by two
    # consecutive successors somewhere up the chain.
    chain_views = [p.view for p in proposals]
    if committed_views:
        highest_committed = max(committed_views)
        index = chain_views.index(highest_committed)
        assert index + 2 < len(chain_views) or any(
            chain_views[i + 1] == chain_views[i] + 1 and chain_views[i + 2] == chain_views[i] + 2
            for i in range(index, len(chain_views) - 2)
        )
    # The lock never exceeds the highest conditionally committed view.
    conditionally_committed = [
        p.view for p in store.proposals() if p.status >= ProposalStatus.CONDITIONALLY_COMMITTED and not p.is_genesis
    ]
    if conditionally_committed:
        assert store.lock.view == max(conditionally_committed)
