"""Property tests of SpotLess's per-instance execution frontier.

A replica executes view v once every instance's committed chain is
contiguous up to v.  ``SpotLessReplica._extend_frontier`` keeps that
frontier as one number per instance that only moves up, resuming from where
it stopped, and advances it by a cursor into the instance store's commit
order.  Hypothesis generates histories of one instance whose commits go
through a real :class:`~repro.core.chain.ProposalStore` (each proposal
commits as the grandparent of three consecutive views, and the store refuses
what its anchor guard refuses), and checks, after every step, that the
resumed frontier equals a walk of every committed proposal from the
execution floor (:func:`_walk_from_floor`, the reference kept here).
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.cluster import SimulatedCluster
from repro.core.chain import GENESIS_PROPOSAL_ID, GENESIS_VIEW, ProposalStatus
from repro.core.messages import ProposeMessage
from repro.recovery.messages import CheckpointCertificate, SlotEntry, SlotRecord
from tests.transactions import txn


def _replica(num_instances: int = 1):
    cluster = SimulatedCluster.for_protocol(
        "spotless", num_replicas=4, num_instances=num_instances, clients=1
    )
    return cluster.replicas[0]


def _walk_from_floor(replica) -> int:
    """Highest view up to which instance 0's commits are contiguous, walked
    from the execution floor over every committed proposal (the reference)."""
    committed = replica.instances[0].store.committed
    committed_views = {proposal.view for proposal in committed}
    floor = replica._execution_floor_view
    frontier = floor - 1
    for proposal in sorted(committed, key=lambda proposal: proposal.view):
        if proposal.view < floor:
            continue
        parent_view = proposal.parent_view
        if parent_view is None:
            break  # committed by reference: the parent link is unknown
        if parent_view > frontier:
            break  # the parent lies above the contiguous prefix
        if parent_view >= floor and parent_view not in committed_views:
            break  # the parent's view is inside the prefix but holds no commit
        frontier = proposal.view
    return frontier


def _certificate(position: int) -> CheckpointCertificate:
    return CheckpointCertificate(position=position, digest=b"checkpoint", signers=(0, 1, 2))


class _Chain:
    """Instance 0's committed chain, built through its proposal store."""

    def __init__(self, replica, first_parent_view: int) -> None:
        self.store = replica.instances[0].store
        self.tip_view = first_parent_view
        # A first parent other than genesis is a proposal this replica never
        # committed (nor even learnt of).
        self.tip_digest = GENESIS_PROPOSAL_ID if first_parent_view == GENESIS_VIEW else b"unknown"
        self.unresolved: List[ProposeMessage] = []
        self.made = 0

    def _message(self, view: int, parent_digest: bytes, parent_view: int, payload=None) -> ProposeMessage:
        self.made += 1
        return ProposeMessage(
            instance=0,
            view=view,
            transactions=(txn(b"txn-%d" % self.made),) if payload is None else payload,
            parent_digest=parent_digest,
            parent_view=parent_view,
        )

    def commit(self, gap: int, by_reference: bool = False, lie: int = 0, payload=None):
        """Commit a proposal ``gap`` views above the tip; returns it, or None
        when the store refuses the commit.

        The store commits it once a child and a grandchild in the two next
        views are conditionally prepared.  By reference it is known only by
        (view, digest), so its parent link is unknown until :meth:`resolve`;
        the store admits such a commit only as its first.  Its message claims
        a parent view ``lie`` views below the tip's (above it when negative),
        which the store does not check (a Byzantine primary's claim).
        """
        view = self.tip_view + gap
        message = self._message(view, self.tip_digest, max(GENESIS_VIEW, self.tip_view - lie), payload)
        store = self.store
        if by_reference:
            proposal = store.record_reference(message.digest(), view)
        else:
            proposal = store.record_message(message)
        child = store.record_message(self._message(view + 1, proposal.digest, view))
        grandchild = store.record_message(self._message(view + 2, child.digest, view + 1))
        for node in (proposal, child, grandchild):
            store.mark_conditionally_prepared(node)
        if proposal.status is not ProposalStatus.COMMITTED:
            return None
        if by_reference:
            self.unresolved.append(message)
        self.tip_view, self.tip_digest = view, proposal.digest
        return proposal

    def resolve(self, index: int) -> None:
        """Ask-recovery attaches a by-reference proposal's payload and parent link."""
        if self.unresolved:
            self.store.record_message(self.unresolved.pop(index % len(self.unresolved)))


Step = st.one_of(
    st.tuples(st.just("commit"), st.integers(1, 3), st.booleans(), st.integers(-2, 2)),
    st.tuples(st.just("resolve"), st.integers(0, 7)),
    st.tuples(st.just("floor"), st.integers(0, 4)),
)


@given(
    first_parent_view=st.integers(GENESIS_VIEW, 3),
    steps=st.lists(Step, min_size=1, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_resumed_frontier_equals_the_walk_from_the_floor(first_parent_view, steps):
    replica = _replica()
    chain = _Chain(replica, first_parent_view)
    for step in steps:
        if step[0] == "commit":
            chain.commit(step[1], by_reference=step[2], lie=step[3])
        elif step[0] == "resolve":
            chain.resolve(step[1])
        else:
            # A state transfer or a stable checkpoint raises the floor; the
            # frontier reads nothing else either writes.
            replica._execution_floor_view += step[1]
        assert replica._extend_frontier(0) == _walk_from_floor(replica)
        assert replica._frontiers[0] >= replica._execution_floor_view - 1


def test_frontier_stops_at_an_unresolved_parent_until_it_is_resolved():
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1, by_reference=True)  # view 0, parent link unknown
    chain.commit(1)  # view 1
    assert replica._extend_frontier(0) == -1
    chain.resolve(0)
    assert replica._extend_frontier(0) == _walk_from_floor(replica) == 1


def test_frontier_stops_at_a_parent_above_it():
    replica = _replica()
    # The first commit names a parent at view 2 that this store never
    # committed; the store admits it, having no committed tip to anchor to.
    chain = _Chain(replica, 2)
    assert chain.commit(1) is not None  # view 3, parent 2
    chain.commit(2)  # view 5, parent 3
    assert replica._extend_frontier(0) == -1
    replica._execution_floor_view = 2  # the parent's view is not committed
    assert replica._extend_frontier(0) == _walk_from_floor(replica) == 1
    replica._execution_floor_view = 3  # now it is settled
    assert replica._extend_frontier(0) == _walk_from_floor(replica) == 5
    # A parent view claimed above the frontier stops it, even once a later
    # commit holds that view.
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1)  # view 0
    chain.commit(1, lie=-2)  # view 1, its message claims parent view 2
    chain.commit(1)  # view 2
    assert replica._extend_frontier(0) == _walk_from_floor(replica) == 0


def test_the_store_refuses_a_later_commit_by_reference():
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1)  # view 0
    assert chain.commit(1, by_reference=True) is None
    assert [proposal.view for proposal in chain.store.committed] == [0]


def test_frontier_stops_at_a_parent_at_or_above_the_floor_that_is_not_a_record():
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1)  # view 0
    chain.commit(2)  # view 2, parent 0
    chain.commit(1, lie=1)  # view 3, its message claims parent view 1
    assert replica._extend_frontier(0) == 2
    replica._execution_floor_view = 2
    assert replica._extend_frontier(0) == 3


def test_a_state_transfer_below_queued_views_lets_the_frontier_pass_them():
    replica = _replica()
    chain = _Chain(replica, 1)
    chain.commit(1, by_reference=True, payload=())  # view 2, parent link unknown
    chain.commit(1)  # view 3, parent 2
    chain.commit(2)  # view 5, parent 3
    assert replica._extend_frontier(0) == -1
    # The transfer certifies views 0-2 and raises the floor to 3 past views
    # 2, 3 and 5 waiting at the cursor: view 2 is passed by the floor, view
    # 3 hangs off it and view 5 off view 3.
    view_2 = chain.store.committed[0]
    entries = (
        SlotEntry(position=0, records=()),
        SlotEntry(position=1, records=()),
        SlotEntry(position=2, records=(SlotRecord(2, 0, (), view_2.digest),)),
    )
    replica._apply_state_entries(entries, _certificate(3))
    assert replica._frontiers[0] == _walk_from_floor(replica) == 5
    assert replica._cursors[0] == len(chain.store.committed)
    # Views 3 to 5 carry their transactions, so they execute at once.
    assert replica.pipeline.next_execution_position == 6
    # View 2 is read from the transferred record, views 3 and 5 from the
    # archive: the record and the store agree on view 2.
    assert replica.committed_map() == {
        (proposal.view, 0): proposal.digest for proposal in chain.store.committed
    }


def test_committed_map_reads_transferred_records_and_the_commits_not_yet_executed():
    replica = _replica(num_instances=2)
    chain = _Chain(replica, GENESIS_VIEW)
    proposal = chain.commit(1, payload=())  # instance 0, view 0
    replica._on_instance_commit(0, proposal)
    assert replica.pipeline.next_execution_position == 0  # instance 1 is short
    # Committed, not executed: the store answers for it.
    assert replica.committed_map() == {(0, 0): proposal.digest}
    record = SlotRecord(0, 0, (), proposal.digest)
    other = SlotRecord(0, 1, (), b"instance-1-view-0")
    entries = (SlotEntry(position=0, records=(record, other)),)
    # Instance 1's record is known only from the transfer, and the archive
    # now answers for both.
    replica._apply_state_entries(entries, _certificate(1))
    assert replica.pipeline.next_execution_position == 1
    committed = {(0, 0): proposal.digest, (0, 1): b"instance-1-view-0"}
    assert replica.committed_map() == committed
    # The position is decided now: the same transfer again changes nothing.
    replica._apply_state_entries(entries, _certificate(1))
    assert replica.checkpoints.frontier == 1
    assert replica.committed_map() == committed


class _CountingCommits(list):
    """One store's commit order that counts the commits read from it, and
    (through :func:`_count_store_reads`) its per-view commit lookups."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


def _count_store_reads(store) -> _CountingCommits:
    commits = store.committed = _CountingCommits(store.committed)
    lookup = store.committed_in_view

    def committed_in_view(view):
        commits.reads += 1
        return lookup(view)

    store.committed_in_view = committed_in_view
    return commits


def _store_reads_per_commit(checkpoint_interval: int) -> float:
    cluster = SimulatedCluster.for_protocol(
        "spotless",
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=checkpoint_interval,
    )
    counted = [
        _count_store_reads(instance.store)
        for replica in cluster.replicas
        for instance in replica.instances.values()
    ]
    cluster.run(duration=0.8)
    reads = sum(commits.reads for commits in counted)
    commits = sum(
        instance.committed_count()
        for replica in cluster.replicas
        for instance in replica.instances.values()
    )
    assert commits > 6000  # enough commits to average over
    return reads / commits


def test_records_read_per_commit_do_not_grow_with_the_records_kept():
    """The views executed between two stable checkpoints grow with the
    checkpoint interval; what a commit reads of its store may not.  A
    frontier that sorted every record above it on each call read 23 records
    per commit at an interval of 16 and 127 at 128; the cursor reads 4.0
    commits and per-view lookups of the store at both."""
    frequent, rare = _store_reads_per_commit(16), _store_reads_per_commit(128)
    assert abs(rare - frequent) <= 0.1 * frequent
