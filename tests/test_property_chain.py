"""Property-based tests for the proposal store (Definition 3.3 invariants).

Hypothesis generates arbitrary branching proposal trees and conditional-
prepare orders; the tests check the structural invariants that the safety
argument of Section 3.3 relies on:

* the lock view never decreases;
* proposal status never downgrades and commits imply the full status ladder;
* commits only happen below three consecutive-view descendants (for the
  paper's rule) and committed proposals never conflict within one store;
* the CP set always contains only conditionally prepared proposals at or
  above the lock view, sorted by (view, digest);
* ``depth`` equals the length of ``precedes``.
"""

from typing import Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.ablations import TwoViewStore
from repro.core.chain import ProposalStatus, ProposalStore
from repro.core.messages import CpEntry, ProposeMessage
from tests.transactions import txn


# A tree shape is a list of (parent_index, view_gap) pairs: proposal k attaches
# to the proposal at parent_index (0 = genesis, i > 0 = the i-th generated
# proposal) with a view that exceeds its parent's view by view_gap.
TreeShape = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=12,
)


def _build_tree(store: ProposalStore, shape: List[Tuple[int, int]]):
    """Materialise a tree shape on ``store``, conditionally preparing each node."""
    nodes = [store.genesis]
    lock_views = [store.lock.view]
    for index, (parent_choice, view_gap) in enumerate(shape):
        parent = nodes[parent_choice % len(nodes)]
        view = parent.view + view_gap
        message = ProposeMessage(
            instance=0,
            view=view,
            transactions=(txn(f"txn-{index}".encode()),),
            parent_digest=parent.digest,
            parent_view=parent.view,
        )
        proposal = store.record_message(message)
        store.mark_conditionally_prepared(proposal)
        nodes.append(proposal)
        lock_views.append(store.lock.view)
    return nodes, lock_views


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_lock_view_is_monotonically_non_decreasing(shape):
    store = ProposalStore()
    _nodes, lock_views = _build_tree(store, shape)
    assert all(later >= earlier for earlier, later in zip(lock_views, lock_views[1:]))


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_status_ladder_is_consistent(shape):
    """Committed ⇒ conditionally committed ⇒ conditionally prepared ⇒ recorded."""
    store = ProposalStore()
    _build_tree(store, shape)
    for proposal in store.proposals():
        if proposal.is_genesis:
            continue
        assert proposal.status >= ProposalStatus.RECORDED
        if proposal.status >= ProposalStatus.COMMITTED:
            # A committed proposal must have a conditionally prepared child
            # chain; in particular it must itself have been prepared.
            assert proposal.status >= ProposalStatus.CONDITIONALLY_PREPARED


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_three_view_commits_have_two_consecutive_descendants(shape):
    """Under the paper's rule, any committed proposal has descendants in the
    two immediately following views on a single chain."""
    store = ProposalStore()
    nodes, _ = _build_tree(store, shape)
    by_digest = {node.digest: node for node in nodes}
    children: Dict[bytes, List] = {}
    for node in nodes:
        if node.parent_digest is not None:
            children.setdefault(node.parent_digest, []).append(node)
    for committed in store.committed:
        descendants_ok = False
        for child in children.get(committed.digest, []):
            if child.view != committed.view + 1:
                continue
            for grandchild in children.get(child.digest, []):
                if grandchild.view == child.view + 1:
                    descendants_ok = True
        # Commits cascade down the chain, so a committed ancestor may rely on
        # a descendant further down; walk the chain to find the certifying
        # triple if the direct children do not provide it.
        if not descendants_ok:
            descendants_ok = any(
                store.extends(other, committed)
                and other.digest != committed.digest
                and other.status >= ProposalStatus.COMMITTED
                for other in store.committed
            )
        assert descendants_ok


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_committed_proposals_never_conflict_within_one_store(shape):
    store = ProposalStore()
    _build_tree(store, shape)
    committed = store.committed
    for first in committed:
        for second in committed:
            assert not store.conflicts(first, second)


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_commit_order_respects_the_chain_order(shape):
    """A proposal is always committed after every ancestor it extends."""
    store = ProposalStore()
    _build_tree(store, shape)
    order = {proposal.digest: index for index, proposal in enumerate(store.committed)}
    for proposal in store.committed:
        for ancestor in store.precedes_chain(proposal):
            if ancestor.is_genesis:
                continue
            assert ancestor.digest in order
            assert order[ancestor.digest] < order[proposal.digest]


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_cp_set_contains_only_prepared_proposals_at_or_above_the_lock(shape):
    store = ProposalStore()
    _build_tree(store, shape)
    lock_view = store.lock.view
    for entry in store.cp_set():
        proposal = store.get(entry.digest)
        assert proposal is not None
        assert proposal.status >= ProposalStatus.CONDITIONALLY_PREPARED
        assert entry.view >= min(lock_view, entry.view)
        assert entry.view == proposal.view


def _reference_cp_set(store: ProposalStore) -> List[Tuple[int, bytes]]:
    """The CP set by its definition: every prepared proposal at or above the
    lock, sorted by (view, digest), or the lock alone when there is none."""
    lock = store.lock
    entries = sorted(
        (proposal.view, proposal.digest)
        for proposal in store.proposals()
        if not proposal.is_genesis
        and proposal.status >= ProposalStatus.CONDITIONALLY_PREPARED
        and proposal.view >= lock.view
    )
    if not entries and not lock.is_genesis:
        entries = [(lock.view, lock.digest)]
    return entries


# Two siblings of genesis in view 1 (both prepared), a chain above one of them,
# and a proposal left recorded only.
_TWO_IN_ONE_VIEW = ([(0, 2), (0, 2), (1, 1), (3, 1), (4, 2)], [True, True, True, True, False], False)


@given(
    TreeShape,
    st.lists(st.booleans(), min_size=12, max_size=12),
    st.booleans(),
)
@example(*_TWO_IN_ONE_VIEW)
@example(*_TWO_IN_ONE_VIEW[:2], True)
@settings(max_examples=120, deadline=None)
def test_cp_set_equals_the_sorted_prepared_proposals_at_or_above_the_lock(shape, prepare, lock_only):
    """``cp_set()`` only concatenates per-view buckets kept in digest order;
    it must equal the definition, with several prepared proposals in one view
    and with a lock no prepared proposal reaches (the lock-only fallback)."""
    store = ProposalStore()
    nodes = [store.genesis]
    for index, ((parent_choice, view_gap), prepared) in enumerate(zip(shape, prepare)):
        parent = nodes[parent_choice % len(nodes)]
        message = ProposeMessage(
            instance=0,
            view=parent.view + view_gap,
            transactions=(txn(f"txn-{index}".encode()),),
            parent_digest=parent.digest,
            parent_view=parent.view,
        )
        proposal = store.record_message(message)
        if prepared:
            store.mark_conditionally_prepared(proposal)
        nodes.append(proposal)
        assert [(entry.view, entry.digest) for entry in store.cp_set()] == _reference_cp_set(store)
    if lock_only:
        # The lock is always prepared when it is reached through the store's
        # own transitions; point it at a recorded proposal above every
        # prepared one to reach the fallback.
        top = max(node.view for node in nodes)
        above = store.record_reference(b"\x7f" * 32, view=top + 1)
        store._lock = above
        assert store.cp_set() == (CpEntry(view=top + 1, digest=above.digest),)
    assert [(entry.view, entry.digest) for entry in store.cp_set()] == _reference_cp_set(store)


@given(TreeShape)
@settings(max_examples=80, deadline=None)
def test_depth_equals_length_of_precedes(shape):
    store = ProposalStore()
    nodes, _ = _build_tree(store, shape)
    for node in nodes:
        assert store.depth(node) == len(store.precedes_chain(node))


@given(TreeShape)
@settings(max_examples=60, deadline=None)
def test_two_view_rule_commits_at_least_as_much_as_three_view(shape):
    """The unsafe two-view rule is strictly more eager than the paper's rule."""
    three = ProposalStore()
    two = TwoViewStore()
    _build_tree(three, shape)
    _build_tree(two, shape)
    committed_three = {proposal.digest for proposal in three.committed}
    committed_two = {proposal.digest for proposal in two.committed}
    assert committed_three <= committed_two


@given(TreeShape)
@settings(max_examples=60, deadline=None)
def test_acceptance_rule_accepts_children_of_the_lock_chain(shape):
    """A new proposal extending the highest prepared tip is always acceptable."""
    store = ProposalStore()
    nodes, _ = _build_tree(store, shape)
    tip = store.highest_conditionally_prepared()
    message = ProposeMessage(
        instance=0,
        view=tip.view + 1,
        transactions=(txn(b"next"),),
        parent_digest=tip.digest,
        parent_view=tip.view,
    )
    assert store.is_acceptable(message)


# ---------------------------------------------------------------------------
# the store's shortcuts decide what the full walks decide
# ---------------------------------------------------------------------------


def _walk_commit_chain(store: ProposalStore, proposal):
    """``ProposalStore._commit_chain`` as the full walk, without the
    committed-tip shortcut: the reference the shortcut must match."""
    if proposal.status >= ProposalStatus.COMMITTED:
        return []
    chain = [proposal]
    seen = {proposal.digest}
    anchor = None
    current = store.parent_of(proposal)
    while current is not None and current.digest not in seen:
        if current.status >= ProposalStatus.COMMITTED:
            anchor = current
            break
        chain.append(current)
        seen.add(current.digest)
        current = store.parent_of(current)
    if store.committed and (anchor is None or anchor.digest != store.committed[-1].digest):
        return []
    newly = []
    for node in reversed(chain):
        if node.is_genesis:
            continue
        if node.status < ProposalStatus.COMMITTED:
            if node.status < ProposalStatus.CONDITIONALLY_PREPARED:
                store._note_prepared(node)
            node.status = ProposalStatus.COMMITTED
            store.committed.append(node)
            newly.append(node)
    return newly


#: One step of a store's history: an operation, which known proposal it
#: applies to (0 = genesis), and a view gap for a new proposal.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["propose", "propose", "reference", "self-parent", "prepare", "prepare", "commit"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=30,
)


def _replay(steps, walk):
    """Apply ``steps`` to a fresh store; with ``walk`` every commit (the
    cascade's own included) goes through :func:`_walk_commit_chain`.  Returns
    what each step returned and what the store holds after each."""
    store = ProposalStore()
    if walk:
        store._commit_chain = lambda proposal: _walk_commit_chain(store, proposal)
    nodes = [store.genesis]
    trace = []
    for index, (operation, pick, gap) in enumerate(steps):
        target = nodes[pick % len(nodes)]
        returned = None
        if operation == "propose":
            message = ProposeMessage(
                instance=0,
                view=target.view + gap,
                transactions=(txn(b"%d" % index),),
                parent_digest=target.digest,
                parent_view=target.view,
            )
            nodes.append(store.record_message(message))
        elif operation == "reference":
            nodes.append(store.record_reference(bytes([index]) * 32, target.view + gap))
        elif operation == "self-parent":
            # A digest that names itself as its parent; the walk must stop.
            if target.parent_digest is None and not target.is_genesis:
                target.parent_digest, target.parent_view = target.digest, target.view
        elif operation == "prepare":
            returned = store.mark_conditionally_prepared(target)
        else:
            returned = store._commit_chain(target)
        trace.append(
            (
                None if returned is None else [proposal.digest for proposal in returned],
                [proposal.digest for proposal in store.committed],
                {proposal.digest: proposal.status for proposal in store.proposals()},
                store.lock.digest,
                [(view, [(e.view, e.digest) for e in bucket]) for view, bucket in sorted(store._prepared_by_view.items())],
                store._max_prepared_view,
            )
        )
    return trace


# A chain 1 <- 2 <- 3 in consecutive views commits 1 through the cascade with
# genesis as its parent, then 2 on the committed tip; 4 forks off 1 (a
# committed parent that is not the tip) and is refused; 5 names itself.
_COMMIT_PATHS = [
    ("propose", 0, 1), ("propose", 1, 1), ("propose", 2, 1), ("prepare", 1, 0), ("prepare", 2, 0),
    ("prepare", 3, 0), ("propose", 3, 1), ("prepare", 4, 0), ("propose", 1, 2), ("commit", 5, 0),
    ("reference", 4, 1), ("self-parent", 6, 0), ("commit", 6, 0),
]


@given(_STEPS)
@example(_COMMIT_PATHS)
@settings(max_examples=200, deadline=None)
def test_committing_on_the_committed_tip_matches_the_full_walk(steps):
    assert _replay(steps, walk=False) == _replay(steps, walk=True)


@given(_STEPS)
@example(_COMMIT_PATHS)
@settings(max_examples=120, deadline=None)
def test_acceptability_is_rule_a1_and_either_a2_or_a3(steps):
    store = ProposalStore()
    nodes = [store.genesis]
    for index, (operation, pick, gap) in enumerate(steps):
        target = nodes[pick % len(nodes)]
        if operation in ("propose", "reference"):
            message = ProposeMessage(
                instance=0,
                view=target.view + gap,
                transactions=(txn(b"%d" % index),),
                parent_digest=target.digest,
                parent_view=target.view,
            )
            nodes.append(store.record_message(message))
        elif operation != "self-parent":
            store.mark_conditionally_prepared(target)
        lock = store.lock
        for parent in nodes:
            child = ProposeMessage(
                instance=0, view=parent.view + 1, transactions=(), parent_digest=parent.digest, parent_view=parent.view
            )
            expected = parent.status >= ProposalStatus.CONDITIONALLY_PREPARED and (
                store.extends(parent, lock) or parent.view > lock.view
            )
            assert store.is_acceptable(child) == expected


@given(_STEPS)
@settings(max_examples=80, deadline=None)
def test_proposals_in_view_keep_their_recording_order(steps):
    store = ProposalStore()
    nodes = [store.genesis]
    recorded: Dict[int, List[bytes]] = {store.genesis.view: [store.genesis.digest]}
    for index, (operation, pick, gap) in enumerate(steps):
        target = nodes[pick % len(nodes)]
        if operation == "reference":
            proposal = store.record_reference(bytes([index]) * 32, target.view + gap)
        else:
            message = ProposeMessage(
                instance=0,
                view=target.view + gap,
                transactions=(txn(b"%d" % index),),
                parent_digest=target.digest,
                parent_view=target.view,
            )
            proposal = store.record_message(message)
        nodes.append(proposal)
        recorded.setdefault(proposal.view, []).append(proposal.digest)
        if target.message is not None:
            # Recording a known proposal again adds nothing.
            store.record_message(target.message)
    for view, digests in recorded.items():
        assert [proposal.digest for proposal in store.proposals_in_view(view)] == digests
    assert store.proposals_in_view(max(recorded) + 1) == ()
