"""Property tests of SpotLess's per-instance execution frontier.

A replica executes view v once every instance's committed chain is
contiguous up to v.  ``SpotLessReplica._extend_frontier`` keeps that
frontier as one number per instance that only moves up, resuming from where
it stopped, and advances it by a cursor over the views ``_commit`` queued.
Hypothesis generates commit sequences for one instance that respect the
proposal store's rules, commits them through the replica's commit helper,
and checks, after every step, that the resumed frontier equals a walk of all
committed records from the execution floor (:func:`_walk_from_floor`, the
reference kept here).  A state transfer writes its records straight into the
record store, below the floor it raises, as the replica does.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.cluster import SimulatedCluster
from repro.core.chain import GENESIS_PROPOSAL_ID, GENESIS_VIEW
from repro.core.messages import ProposeMessage
from repro.core.node import CommitRecord


def _replica():
    cluster = SimulatedCluster.for_protocol("spotless", num_replicas=4, num_instances=1, clients=1)
    return cluster.replicas[0]


def _walk_from_floor(replica) -> int:
    """Highest view up to which instance 0's records are contiguous, walked
    from the execution floor over every record (the reference)."""
    records = replica._committed_by_view[0]
    store = replica.instances[0].store
    floor = replica._execution_floor_view
    frontier = floor - 1
    for view in sorted(records):
        if view < floor:
            continue
        record = records[view]
        parent_view = record.parent_view
        if parent_view is None:
            proposal = store.get(record.proposal_digest)
            if proposal is not None:
                parent_view = proposal.parent_view
        if parent_view is None or parent_view > frontier:
            break
        if parent_view >= floor and parent_view not in records:
            break
        frontier = view
    return frontier


def _record(view: int, parent_view: Optional[int], digest: bytes) -> CommitRecord:
    return CommitRecord(
        view=view,
        instance=0,
        proposal_digest=digest,
        transaction_digests=(),
        parent_view=parent_view,
        has_payload=parent_view is not None,
    )


class _Chain:
    """One instance's committed chain, built the way the store commits it."""

    def __init__(self, replica, first_parent_view: int) -> None:
        self.replica = replica
        self.records = replica._committed_by_view[0]
        self.store = replica.instances[0].store
        self.tip_view = first_parent_view
        # A first parent other than genesis is a proposal this replica never
        # committed (nor even learnt of).
        self.tip_digest = GENESIS_PROPOSAL_ID if first_parent_view == GENESIS_VIEW else b"unknown"
        self.unresolved: List[ProposeMessage] = []

    def commit(self, gap: int, by_reference: bool) -> None:
        """Commit the next proposal of the chain, oldest first, above the tip."""
        view = self.tip_view + gap
        message = ProposeMessage(
            instance=0,
            view=view,
            transaction_digests=(f"txn-{view}".encode(),),
            parent_digest=self.tip_digest,
            parent_view=self.tip_view,
        )
        digest = message.digest()
        if by_reference:
            # Known only by (view, digest): the parent link comes later.
            self.store.record_reference(digest, view)
            self.unresolved.append(message)
            self.replica._commit(_record(view, None, digest))
        else:
            self.store.record_message(message)
            self.replica._commit(_record(view, self.tip_view, digest))
        self.tip_view, self.tip_digest = view, digest

    def resolve(self, index: int) -> None:
        """Ask-recovery attaches a by-reference proposal's payload and parent link."""
        if self.unresolved:
            self.store.record_message(self.unresolved.pop(index % len(self.unresolved)))

    def raise_floor(self, delta: int, transfer: bool, collect: bool) -> None:
        """Move the execution floor up, as a state transfer or a stable checkpoint does."""
        old = self.replica._execution_floor_view
        floor = old + delta
        if transfer:
            # A state transfer certifies records below its position only.
            for view in range(old, floor):
                if view not in self.records:
                    self.records[view] = _record(view, None, b"transferred-%d" % view)
        self.replica._execution_floor_view = floor
        if collect:
            for view in [view for view in self.records if view < floor]:
                del self.records[view]


Step = st.one_of(
    st.tuples(st.just("commit"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("resolve"), st.integers(0, 7)),
    st.tuples(st.just("floor"), st.integers(0, 4), st.booleans(), st.booleans()),
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
            chain.commit(step[1], step[2])
        elif step[0] == "resolve":
            chain.resolve(step[1])
        else:
            chain.raise_floor(step[1], step[2], step[3])
        assert replica._extend_frontier(0) == _walk_from_floor(replica)
        assert replica._frontiers[0] >= replica._execution_floor_view - 1


def test_frontier_stops_at_an_unresolved_parent_until_it_is_resolved():
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1, by_reference=False)  # view 0
    chain.commit(1, by_reference=True)  # view 1, parent link unknown
    chain.commit(1, by_reference=False)  # view 2
    assert replica._extend_frontier(0) == 0
    chain.resolve(0)
    assert replica._extend_frontier(0) == 2


def test_frontier_stops_at_a_parent_above_it():
    replica = _replica()
    # The first commit names a parent at view 2 that was never committed here.
    chain = _Chain(replica, 2)
    chain.commit(1, by_reference=False)  # view 3, parent 2
    assert replica._extend_frontier(0) == -1
    chain.raise_floor(3, transfer=False, collect=False)  # parent now settled
    assert replica._extend_frontier(0) == 3


def test_frontier_stops_at_a_parent_at_or_above_the_floor_that_is_not_a_record():
    replica = _replica()
    replica._commit(_record(0, GENESIS_VIEW, b"a"))
    replica._commit(_record(2, 0, b"b"))
    replica._commit(_record(3, 1, b"c"))  # parent 1 is inside the prefix but not a record
    assert replica._extend_frontier(0) == 2
    replica._execution_floor_view = 2
    assert replica._extend_frontier(0) == 3


def test_a_state_transfer_below_queued_views_lets_the_frontier_pass_them():
    replica = _replica()
    chain = _Chain(replica, GENESIS_VIEW)
    chain.commit(1, by_reference=False)  # view 0
    chain.commit(2, by_reference=True)  # view 2, parent link unknown
    chain.commit(1, by_reference=False)  # view 3, parent 2
    chain.commit(2, by_reference=False)  # view 5, parent 3
    assert replica._extend_frontier(0) == 0
    # The transfer certifies views 0-2 and writes the missing view 1 below
    # the floor it raises, after views 2, 3 and 5 were queued: view 2 is
    # passed by the floor, view 3 hangs off it and view 5 off view 3.
    chain.raise_floor(3, transfer=True, collect=False)
    assert 1 in replica._committed_by_view[0]
    assert replica._extend_frontier(0) == _walk_from_floor(replica) == 5
    assert not replica._above_frontier[0]


class _CountingRecords(dict):
    """One instance's record store that counts the records read from it:
    lookups, membership tests and every key an iteration yields."""

    reads = 0

    def __getitem__(self, view):
        self.reads += 1
        return dict.__getitem__(self, view)

    def get(self, view, default=None):
        self.reads += 1
        return dict.get(self, view, default)

    def __contains__(self, view):
        self.reads += 1
        return dict.__contains__(self, view)

    def __iter__(self):
        for view in dict.__iter__(self):
            self.reads += 1
            yield view


def _records_read_per_commit(checkpoint_interval: int) -> float:
    cluster = SimulatedCluster.for_protocol(
        "spotless",
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=checkpoint_interval,
    )
    for replica in cluster.replicas:
        replica._committed_by_view = {
            instance: _CountingRecords(records) for instance, records in replica._committed_by_view.items()
        }
    cluster.run(duration=0.8)
    reads = sum(records.reads for replica in cluster.replicas for records in replica._committed_by_view.values())
    commits = sum(len(replica.commit_log) for replica in cluster.replicas)
    assert commits > 6000  # enough commits to average over
    return reads / commits


def test_records_read_per_commit_do_not_grow_with_the_records_kept():
    """The records an instance keeps above the last stable checkpoint grow
    with the checkpoint interval; what a commit reads of them may not.  A
    frontier that sorted every record above it on each call read 23 records
    per commit at an interval of 16 and 127 at 128; the cursor reads 4.0
    and 3.9."""
    frequent, rare = _records_read_per_commit(16), _records_read_per_commit(128)
    assert abs(rare - frequent) <= 0.1 * frequent
