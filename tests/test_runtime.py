"""Tests for the unified runtime layer (mempool, pipeline, quorums, one host).

The final test pins the fixed-seed state digest of every protocol to the
value the pre-refactor per-protocol implementations produced, so any change
to the shared runtime that alters replica behaviour is caught immediately.
"""

import inspect

import pytest

from repro.bench.cluster import REPLICA_CLASSES, SimulatedCluster
from repro.core.config import SpotLessConfig
from repro.ledger.execution import ExecutionEngine
from repro.ledger.kvtable import KeyValueTable
from repro.ledger.ledger import Ledger
from repro.protocols.common import BftConfig
from repro.recovery import CheckpointManager, SlotEntry, SlotRecord
from repro.runtime import AdmitResult, ExecutionPipeline, Mempool, QuorumParams
from repro.workload.requests import Operation, Transaction


def make_txn(sequence, client_id=1):
    return Transaction(
        client_id=client_id, sequence=sequence, operations=(Operation.write(sequence, b"v"),)
    )


# ---------------------------------------------------------------------------
# QuorumParams
# ---------------------------------------------------------------------------


def test_quorum_params_spotless_vs_bft():
    # n = 7 is not of the form 3f + 1, so the two quorum rules diverge.
    spotless = QuorumParams.spotless(7)
    bft = QuorumParams.bft(7)
    assert spotless.f == bft.f == 2
    assert spotless.quorum == 5
    assert bft.quorum == 5
    spotless6 = QuorumParams.spotless(6)
    bft6 = QuorumParams.bft(6)
    assert spotless6.quorum == 5  # n - f = 6 - 1
    assert bft6.quorum == 3  # 2f + 1
    assert spotless.weak_quorum == bft.weak_quorum == 3


def test_quorum_params_rejects_tiny_clusters():
    with pytest.raises(ValueError):
        QuorumParams.bft(3)


# ---------------------------------------------------------------------------
# DeploymentConfig: one base, two quorum rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 10])
def test_both_config_families_share_everything_but_the_quorum_rule(n):
    spotless, bft = SpotLessConfig(num_replicas=n), BftConfig(num_replicas=n)
    f = (n - 1) // 3
    assert spotless.f == bft.f == f
    assert spotless.quorum == n - f
    assert bft.quorum == 2 * f + 1
    assert spotless.weak_quorum == bft.weak_quorum == f + 1
    assert spotless.n == bft.n == n
    assert list(spotless.replica_ids()) == list(bft.replica_ids()) == list(range(n))
    assert (spotless.num_instances, bft.num_instances) == (n, 1)
    # The catch-up pull SpotLess used to read through a getattr default.
    assert spotless.request_timeout == bft.request_timeout == 0.25
    for config_class in (SpotLessConfig, BftConfig):
        owned = vars(config_class)
        assert not {"n", "f", "quorum", "weak_quorum", "replica_ids"} & set(owned)


@pytest.mark.parametrize("config_class", [SpotLessConfig, BftConfig])
@pytest.mark.parametrize(
    "bad",
    [
        {"num_replicas": 3},
        {"num_replicas": 4, "num_instances": 5},
        {"num_replicas": 4, "batch_size": 0},
        {"num_replicas": 4, "checkpoint_interval": -1},
    ],
    ids=["n<4", "m>n", "batch<1", "K<0"],
)
def test_shared_validation_rejects_for_both_families(config_class, bad):
    with pytest.raises(ValueError):
        config_class(**bad)


# ---------------------------------------------------------------------------
# Mempool
# ---------------------------------------------------------------------------


def test_mempool_fifo_order():
    pool = Mempool()
    txns = [make_txn(i) for i in range(5)]
    for txn in txns:
        assert pool.admit(txn) is AdmitResult.NEW
    batch = pool.take_batch(3)
    assert batch == tuple(txns[:3])
    assert pool.take_batch(10) == tuple(txns[3:])
    assert pool.take_batch(10) is None
    assert pool.take_batch(10, allow_empty=True) == ()


def test_mempool_dedup_and_executed_skip():
    pool = Mempool()
    txn = make_txn(0)
    assert pool.admit(txn) is AdmitResult.NEW
    assert pool.admit(txn) is AdmitResult.DUPLICATE
    assert pool.pending_count() == 1
    # A claim is judged against what ran before the batch: a duplicate
    # inside one batch is fresh twice, a later claim finds nothing new.
    assert pool.claim_unexecuted([txn, txn]) == [txn, txn]
    assert pool.claim_unexecuted([txn]) == []
    assert pool.pending_count() == 0
    assert pool.admit(txn) is AdmitResult.EXECUTED
    # Executed digests are skipped lazily at batch time.
    assert pool.take_batch(10) is None


def test_mempool_retransmission_requeues_abandoned_proposal():
    pool = Mempool()
    txn = make_txn(0)
    pool.admit(txn)
    assert pool.take_batch(1) == (txn,)
    assert pool.pending_count() == 0
    # A retransmission of a proposed-but-unexecuted request queues it again
    # so a proposal that died on an abandoned branch is eventually retried.
    assert pool.admit(txn) is AdmitResult.DUPLICATE
    assert pool.pending_count() == 1
    # While it is queued, further retransmissions are no-ops.
    pool.admit(txn)
    assert pool.pending_count() == 1
    # It is no longer marked proposed, so the next batch takes it.
    assert pool.take_batch(1) == (txn,)


def test_mempool_has_unproposed_skips_like_take_batch():
    pool = Mempool()
    txn = make_txn(0)
    pool.admit(txn)
    assert pool.has_unproposed(0)
    # A backup saw another replica's proposal cover the request.
    pool.mark_proposed((txn,))
    assert not pool.has_unproposed(0)
    assert pool.pending_count() == 0
    # The proposal was abandoned: a retransmission queues it again.
    assert pool.admit(txn) is AdmitResult.DUPLICATE
    assert pool.has_unproposed(0)
    assert pool.take_batch(1) == (txn,)


def test_mempool_requeue_returns_abandoned_requests_but_never_a_noop():
    pool = Mempool(num_shards=2)
    request = make_txn(0)
    pool.admit(request, shard=1)
    # A backup accepted a proposal carrying the request, then a no-op.
    pool.mark_proposed((request,))
    pool.mark_proposed(())
    assert not pool.has_unproposed(1)
    assert pool.pending_count() == 0
    # Both views were abandoned: the request is queued again, and the
    # no-op's empty batch queues nothing.
    pool.requeue((request,), shard=1)
    pool.requeue((), shard=1)
    assert pool.pending_count() == 1
    assert pool.take_batch(10, shard=1) == (request,)
    assert pool.take_batch(10, shard=1) is None
    # A requeue of an executed (so no longer proposed) request is ignored.
    pool.claim_unexecuted([request])
    pool.requeue((request,), shard=1)
    assert pool.pending_count() == 0


def test_mempool_requeue_of_a_still_queued_request_keeps_its_place():
    pool = Mempool()
    first, second = make_txn(0), make_txn(1)
    pool.admit(first)
    pool.admit(second)
    pool.mark_proposed((first,))
    pool.requeue((first,), shard=0)
    assert pool.pending_count() == 2
    assert pool.take_batch(10) == (first, second)


def test_mempool_per_shard_isolation():
    pool = Mempool(num_shards=3)
    by_shard = {0: make_txn(0), 1: make_txn(1), 2: make_txn(2)}
    for shard, txn in by_shard.items():
        pool.admit(txn, shard=shard)
    assert [pool.pending_count(shard=shard) for shard in range(3)] == [1, 1, 1]
    assert pool.pending_count() == 3
    assert pool.has_unproposed(1)
    assert pool.take_batch(10, shard=1) == (by_shard[1],)
    assert not pool.has_unproposed(1)
    assert pool.pending_count(shard=0) == 1
    assert pool.pending_count() == 2


def test_mempool_mark_proposed_does_not_queue():
    """A backup that accepts a proposal marks what it carries proposed:
    nothing is queued for it to propose."""
    pool = Mempool()
    txn = make_txn(0)
    pool.mark_proposed((txn,))
    assert pool.pending_count() == 0 and not pool.has_unproposed(0)
    assert pool.take_batch(10) is None


# ---------------------------------------------------------------------------
# ExecutionPipeline
# ---------------------------------------------------------------------------


def make_pipeline(num_shards=1, inform=None, fold=None):
    pool = Mempool(num_shards=num_shards)
    table = KeyValueTable()
    engine = ExecutionEngine(table=table, ledger=Ledger())
    pipeline = ExecutionPipeline(
        mempool=pool,
        engine=engine,
        protocol_name="test",
        quorum=3,
        inform=inform,
        fold=fold,
    )
    return pool, pipeline


def make_archived_pipeline():
    """A pipeline folding into a checkpoint manager with checkpointing off,
    whose archive then records every executed entry."""
    checkpoints = CheckpointManager(node_id=0, num_replicas=4, quorum=3, interval=0)
    pool, pipeline = make_pipeline(fold=checkpoints.record_execution)
    return pool, pipeline, checkpoints


def test_pipeline_gap_stalls_execution_until_filled():
    pool, pipeline, checkpoints = make_archived_pipeline()
    first, second = make_txn(0), make_txn(1)
    pool.admit(first)
    pool.admit(second)
    pipeline.deliver(1, (second.digest(),))
    assert pipeline.executed_transactions == 0
    assert pipeline.next_execution_position == 0
    assert list(pipeline.pending) == [1] and checkpoints.archive == []
    assert pipeline.is_decided(1) and not pipeline.is_decided(0)
    pipeline.deliver(0, (first.digest(),))
    assert pipeline.executed_transactions == 2
    assert pipeline.next_execution_position == 2
    # Executed entries leave the pipeline: the archive is their one record.
    assert pipeline.pending == {}
    assert [entry.position for entry in checkpoints.archive] == [0, 1]
    assert pipeline.is_decided(0) and pipeline.is_decided(1) and not pipeline.is_decided(2)


def decide(pipeline, position, transactions, view=0, instance=0):
    """Deliver one decided batch carrying ``transactions`` at ``position``."""
    record = SlotRecord(view=view, instance=instance, transactions=tuple(transactions))
    pipeline.deliver_entry(SlotEntry(position=position, records=(record,)))


def test_pipeline_executes_carried_transactions_the_pool_never_held():
    """A decided batch carries its transactions: it executes at once, with
    nothing admitted to the pool, and claims them executed there."""
    pool, pipeline = make_pipeline()
    txn = make_txn(0)
    decide(pipeline, 0, (txn,))
    assert pipeline.executed_transactions == 1
    assert pipeline.next_execution_position == 1 and pipeline.pending == {}
    assert pool.admit(txn) is AdmitResult.EXECUTED


def test_pipeline_noop_writes_no_record_and_appends_no_block():
    """A no-op of instance 2 (an empty record) fills its slot and leaves
    record 2 as it was."""
    informed = []
    pool, pipeline = make_pipeline(inform=informed.append)
    engine = pipeline.engine
    request = make_txn(2)  # writes record 2
    decide(pipeline, 0, (request,))
    state = engine.state_digest()
    decide(pipeline, 1, (), view=1, instance=2)
    assert pipeline.next_execution_position == 2
    assert engine.state_digest() == state
    assert engine.ledger.height == 1
    assert informed == [request]
    # Beside another instance's request in one entry, the block carries the
    # request alone.
    other = make_txn(3)
    pipeline.deliver_entry(
        SlotEntry(
            position=2,
            records=(
                SlotRecord(view=2, instance=2, transactions=(), slot_digest=b""),
                SlotRecord(view=2, instance=3, transactions=(other,), slot_digest=b""),
            ),
        )
    )
    assert pipeline.next_execution_position == 3
    assert engine.ledger.height == 2
    assert engine.ledger.head.transactions == (other.digest(),)
    # The table holds the two requests' writes and nothing else.
    expected = KeyValueTable()
    for operation in (*request.operations, *other.operations):
        expected.write(operation.key, operation.value)
    assert engine.state_digest() == expected.state_digest()
    assert pipeline.executed_transactions == 2


def test_pipeline_informs_clients_once_per_fresh_transaction():
    informed = []
    pool, pipeline = make_pipeline(inform=informed.append)
    txn = make_txn(0)
    decide(pipeline, 0, (txn,))
    # A second decision carrying the same transaction does not re-execute it.
    decide(pipeline, 1, (txn,))
    assert informed == [txn]
    assert pipeline.executed_transactions == 1
    assert pipeline.next_execution_position == 2 and pipeline.pending == {}


def test_pipeline_duplicate_position_is_ignored():
    pool, pipeline, checkpoints = make_archived_pipeline()
    first, second = make_txn(0), make_txn(1)
    decide(pipeline, 0, (first,))
    # Position 0 executed and left the pipeline; it is still decided once.
    decide(pipeline, 0, (second,))
    assert pipeline.next_execution_position == 1 and pipeline.pending == {}
    assert [entry.records[0].transactions for entry in checkpoints.archive] == [(first,)]
    # A pending position is decided once as well.
    decide(pipeline, 2, (first,))
    decide(pipeline, 2, (second,))
    assert list(pipeline.pending) == [2] and len(checkpoints.archive) == 1
    assert pipeline.pending[2].records[0].transactions == (first,)


def test_pipeline_resolves_a_whole_entry_before_executing_and_folds_that_entry():
    """An entry waits for the positions below it, then every record of it
    runs and the entry itself is folded."""
    folded = []
    pool = Mempool()
    engine = ExecutionEngine(table=KeyValueTable(), ledger=Ledger())
    pipeline = ExecutionPipeline(pool, engine, "test", quorum=3, fold=folded.append)
    first, second, earlier = make_txn(0), make_txn(1), make_txn(2)
    entry = SlotEntry(
        position=1,
        records=(
            SlotRecord(view=1, instance=0, transactions=(first,)),
            SlotRecord(view=1, instance=1, transactions=(second,)),
        ),
    )
    pipeline.deliver_entry(entry)
    # Position 0 is not decided yet: nothing of the entry executes.
    assert pipeline.pending == {1: entry}
    assert pipeline.executed_transactions == 0 and folded == []
    decide(pipeline, 0, (earlier,))
    assert pipeline.executed_transactions == 3
    assert folded[1] is entry
    # Each record ran under its own (view, instance) block proof.
    assert [block.proof.instance for block in engine.ledger.blocks()[2:]] == [0, 1]


@pytest.mark.parametrize("protocol", ["spotless", "pbft", "rcc", "hotstuff", "narwhal-hs"])
def test_every_protocol_executes_and_folds_through_the_one_pipeline(protocol):
    cluster = SimulatedCluster.for_protocol(
        protocol, num_replicas=4, batch_size=8, clients=3, seed=7, checkpoint_interval=16
    )
    cluster.run(duration=0.3)
    for replica in cluster.replicas:
        assert replica.checkpoints.enabled
        decided = [*replica.checkpoints.archive, *replica.pipeline.pending.values()]
        assert sum(len(entry.records) for entry in decided) > 0
        # Every executed position was folded, and nothing else was.
        assert replica.pipeline.next_execution_position == replica.checkpoints.frontier > 0


#: Entries a replica may hold in its pending map or proposed set beyond what
#: it held at half the horizon: the requests in flight (3 clients x 4
#: outstanding) and the RCC no-ops filling their rounds, with room to spare.
#: The executed history itself (hundreds of positions per 0.3 s) is not in
#: either.
RETAINED_SLACK = 32


@pytest.mark.parametrize("protocol", ["spotless", "pbft", "rcc", "hotstuff", "narwhal-hs"])
def test_pipeline_and_proposed_set_do_not_grow_with_the_history(protocol):
    cluster = SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=0,
    )

    def retained():
        return [
            (len(replica.pipeline.pending), len(replica.mempool._proposed))
            for replica in cluster.replicas
        ]

    cluster.run(duration=0.3)
    half = retained()
    frontier = cluster.replicas[0].checkpoints.frontier
    cluster.run_additional(0.3)
    assert cluster.replicas[0].checkpoints.frontier > 2 * RETAINED_SLACK + frontier
    for (pending_before, proposed_before), (pending, proposed) in zip(half, retained()):
        assert pending <= pending_before + RETAINED_SLACK
        assert proposed <= proposed_before + RETAINED_SLACK


@pytest.mark.parametrize(
    "protocol, interval",
    [("rcc", 16), ("rcc", 0), ("spotless", 16), ("spotless", 0)],
    ids=["16", "0", "spotless-16", "spotless-0"],
)
def test_committed_map_covers_the_stable_floor_up_and_the_pending_positions(protocol, interval):
    cluster = SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=interval,
    )
    cluster.run(duration=0.3)
    replica = cluster.replicas[0]
    if protocol == "rcc":
        # Run on to a moment when a decided position waits on a gap, so the
        # map's pending part is exercised.
        while not replica.pipeline.pending:
            cluster.run_additional(0.005)
    else:
        # Run on to a moment when a commit waits for another instance's, so
        # the map's store-tail part is exercised.
        while all(
            not instance.store.committed or instance.store.committed[-1].view < replica.checkpoints.frontier
            for instance in replica.instances.values()
        ):
            cluster.run_additional(0.005)
    checkpoints, pending = replica.checkpoints, replica.pipeline.pending
    floor = checkpoints.stable_position()
    assert (floor > 0) == (interval > 0)
    committed = replica.committed_map()
    if protocol == "spotless":
        # No fault: every commit from the floor up is in a store here, and
        # the archive's records name the same proposals the stores do.
        assert committed == {
            (proposal.view, instance_id): proposal.digest
            for instance_id, instance in replica.instances.items()
            for proposal in instance.store.committed
            if proposal.view >= floor
        }
        # Some of them are committed above the execution frontier.
        assert max(view for view, _ in committed) >= checkpoints.frontier
        return
    assert pending
    # With checkpointing off the floor is 0: every decided position.
    assert sorted(committed) == [
        (position, 0) for position in [*range(floor, checkpoints.frontier), *sorted(pending)]
    ]
    for entry in [*checkpoints.archive[floor:], *pending.values()]:
        (record,) = entry.records
        assert committed[(entry.position, 0)] == b"".join(t.digest() for t in record.transactions)


#: Slots a committed map may gain between 0.3 s and 0.6 s at a checkpoint
#: interval of 16: two intervals of views on each of four instances.  The
#: executed history (about 150 positions per 0.3 s here) is not in it.
COMMITTED_MAP_SLACK = 2 * 16 * 4


@pytest.mark.parametrize("protocol", ["spotless", "pbft", "rcc", "hotstuff", "narwhal-hs"])
def test_committed_map_does_not_grow_with_the_history(protocol):
    cluster = SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=16,
    )
    cluster.run(duration=0.3)
    half = [len(replica.committed_map()) for replica in cluster.replicas]
    frontier = cluster.replicas[0].checkpoints.frontier
    cluster.run_additional(0.3)
    assert cluster.replicas[0].checkpoints.frontier > frontier + COMMITTED_MAP_SLACK
    for before, replica in zip(half, cluster.replicas):
        assert len(replica.committed_map()) <= before + COMMITTED_MAP_SLACK


# ---------------------------------------------------------------------------
# A no-op is the empty batch
# ---------------------------------------------------------------------------


def test_a_noop_is_the_empty_batch_and_nothing_fakes_a_transaction_for_it():
    """No stack builds, registers, rebuilds or filters a no-op transaction:
    no name of the modules and classes that once did so speaks of one."""
    from repro.ledger import execution
    from repro.runtime import pipeline, replica

    owners = (execution, pipeline, replica.ReplicaRuntime, *REPLICA_CLASSES.values(), Operation, Transaction)
    for owner in owners:
        assert [name for name in dir(owner) if "noop" in name.lower()] == [], owner
    assert list(inspect.signature(ExecutionPipeline).parameters) == [
        "mempool",
        "engine",
        "protocol_name",
        "quorum",
        "inform",
        "fold",
    ]


# ---------------------------------------------------------------------------
# One host constructor; PBFT is the host's one-instance case
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", sorted(REPLICA_CLASSES))
def test_every_replica_class_is_constructed_the_same_way(protocol):
    replica_class = REPLICA_CLASSES[protocol]
    parameters = list(inspect.signature(replica_class.__init__).parameters)
    assert parameters == ["self", "node_id", "config", "simulator", "network", "size_model"]
    cluster = SimulatedCluster.for_protocol(protocol, num_replicas=4, batch_size=8, seed=7)
    cluster.run(duration=0.1)
    first_block = cluster.replicas[0].ledger.blocks()[1]
    assert first_block.proof.protocol == replica_class.protocol_name
    assert replica_class.protocol_name == ("narwhal-hs" if protocol == "narwhal" else protocol)


def test_pbft_is_the_one_instance_case_of_the_rcc_host():
    host = REPLICA_CLASSES["rcc"]
    assert issubclass(REPLICA_CLASSES["pbft"], host)
    cores = {}
    for protocol in ("pbft", "rcc"):
        cluster = SimulatedCluster.for_protocol(protocol, num_replicas=4, clients=0)
        cluster.run(duration=0.1)
        cores[protocol] = [list(replica.cores.values()) for replica in cluster.replicas]
    assert [len(replica_cores) for replica_cores in cores["pbft"]] == [1, 1, 1, 1]
    assert [len(replica_cores) for replica_cores in cores["rcc"]] == [4, 4, 4, 4]
    # An idle primary proposes nothing in either: RCC's no-op waits for a
    # round that needs it, and with one instance no round ever does.
    for protocol in ("pbft", "rcc"):
        assert sum(core.preprepares_sent for replica_cores in cores[protocol] for core in replica_cores) == 0
    # No rule differs: PBFT only names itself and its one core.
    pbft_rules = {name for name in vars(REPLICA_CLASSES["pbft"]) if not name.startswith("__")}
    assert pbft_rules == {"protocol_name", "core", "view"}


# ---------------------------------------------------------------------------
# Transaction digest memoization
# ---------------------------------------------------------------------------


def test_transaction_digest_is_memoized():
    txn = make_txn(0)
    assert txn.digest() is txn.digest()
    # Equality and hashing are unaffected by the cached digest.
    twin = make_txn(0)
    twin.digest()
    assert txn == twin and hash(txn) == hash(twin)


# ---------------------------------------------------------------------------
# Cross-protocol behavioural pin: the runtime refactor preserved every
# protocol's fixed-seed execution (digests recorded from the pre-refactor
# implementations).  Run with checkpoint_interval=0 — which must make the
# recovery subsystem fully dormant — so these digests double as a regression
# test that disabling checkpointing restores the exact pre-recovery wire
# behaviour.
# ---------------------------------------------------------------------------

GOLDEN_STATE = {
    # SpotLess, PBFT and RCC re-pinned when a proposal came to be priced by
    # the transactions it carries and a SpotLess request by its 216 B: an
    # empty or partial batch stopped paying for a full one (SpotLess
    # executes 392 -> 470, PBFT 969 -> 968, RCC 875 -> 874).  SpotLess
    # re-pinned again when an instance came to enter view v + 1 only once
    # every instance at its replica had entered view v (470 -> 495).
    "spotless": ("843adb108c05f376755be82b0e08b8c61485e75b10c2eeab6ac2cb7470c6faef", 495),
    "pbft": ("3543566fa25ccea3b4d28c3bfee2730a723e191a15e4bc6f7880440aaab4b027", 968),
    "rcc": ("8dc8c7de5763c003cc1aed2fbdf6e4c31f6382f65cd9a26cf19dbbac9e757c3c", 874),
    "hotstuff": ("ce6dd1287feb8a446767a693debc56ee70f78dcaa3761b10218fa7c90383ba32", 411),
    "narwhal-hs": ("013921b3afb74e8a49e267687e071bfd611da027dd617845449c751ecc8ea97b", 407),
}


def _run_golden_cell(protocol, checkpoint_interval=0):
    cluster = SimulatedCluster.for_protocol(
        protocol,
        num_replicas=4,
        batch_size=8,
        clients=3,
        outstanding_per_client=4,
        seed=7,
        checkpoint_interval=checkpoint_interval,
    )
    cluster.run(duration=0.4)
    return cluster


@pytest.mark.parametrize("protocol", sorted(GOLDEN_STATE))
def test_fixed_seed_state_digest_matches_pre_refactor_value(protocol):
    cluster = _run_golden_cell(protocol)
    replica = cluster.replicas[0]
    digest, executed = GOLDEN_STATE[protocol]
    assert replica.state_digest().hex() == digest
    assert replica.executed_transactions == executed
    assert replica.checkpoints.votes_sent == 0  # recovery layer fully dormant
    cluster.assert_no_divergence()


def test_fixed_seed_spotless_schedule_is_pinned():
    """The same cell's *schedule*, not only its end state.

    An optimisation of ``core/`` may not add, drop or reorder a single event
    or message: these values were recorded before the per-Sync path was
    reworked and every later change to it is held to them.  Re-pinned when a
    proposal came to be priced by the transactions it carries, and when an
    instance came to enter view v + 1 only once every instance at its
    replica had entered view v.
    """
    cluster = _run_golden_cell("spotless")
    assert cluster.simulator.processed_events == 20570
    assert cluster.metrics.counter("network.messages_sent").value == 16462
    assert cluster.metrics.counter("network.bytes_sent").value == 6524048
    per_replica = [list(replica.instances.values()) for replica in cluster.replicas]
    assert [sum(i.views_entered for i in instances) for instances in per_replica] == [831, 831, 832, 831]
    assert [sum(i.syncs_sent for i in instances) for instances in per_replica] == [829, 830, 829, 831]


#: protocol -> (events, messages, bytes, per-replica view, per-replica
#: committed chain height), recorded before the lock was made to move.  The
#: bytes were re-pinned when a proposal came to be priced by the
#: transactions it carries.
HOTSTUFF_FAMILY_SCHEDULE = {
    "hotstuff": (4555, 4566, 1455525, [206] * 4, [204] * 4),
    "narwhal-hs": (4531, 4539, 2058765, [204, 205, 204, 204], [202, 203, 202, 202]),
}


@pytest.mark.parametrize("protocol", sorted(HOTSTUFF_FAMILY_SCHEDULE))
def test_fixed_seed_hotstuff_family_schedule_is_pinned(protocol):
    """The two-chain lock and the bounded ancestor walk decide the same votes
    as the genesis lock did on a fault-free run, so nothing on the wire moves."""
    events, messages, sent_bytes, views, heights = HOTSTUFF_FAMILY_SCHEDULE[protocol]
    cluster = _run_golden_cell(protocol)
    assert cluster.simulator.processed_events == events
    assert cluster.metrics.counter("network.messages_sent").value == messages
    assert cluster.metrics.counter("network.bytes_sent").value == sent_bytes
    assert [replica.view for replica in cluster.replicas] == views
    assert [replica.committed_chain_height() for replica in cluster.replicas] == heights


#: protocol -> (rolling execution digest, frontier, certificates formed) of
#: replica 0 with checkpointing at its default interval.  The three stacks
#: fold the three record shapes: a node digest per position (HotStuff), an
#: empty slot digest (PBFT), several records or none per view (SpotLess).
#: All three re-pinned when a proposal came to be priced by the transactions
#: it carries, which moves what each replica has executed by the cut-off;
#: the fold's format itself is pinned by
#: ``test_fold_of_a_record_carrying_transactions_is_pinned``.  SpotLess
#: re-pinned again when its instances came to be kept within a view of
#: each other, which moves what replica 0 executed by the cut-off.
GOLDEN_ROLLING = {
    "hotstuff": ("a4c5157921d178712c1aae02d46de11608742d33eae7134f3b05ae39a976ae9c", 204, 12),
    "pbft": ("225c741a6a6fc79e358a51e4a54feb8f3497382f7ed556341a97561b92fdd31f", 969, 60),
    "spotless": ("9255df96c4f022ce694caa7a88d1d0a05b3c93da2bff9af37e0731275a783c9c", 204, 12),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_ROLLING))
def test_fixed_seed_rolling_execution_digest_is_pinned(protocol):
    """The golden cells above run with checkpointing off, so none of them
    folds anything: this one pins the fold's output format."""
    rolling, frontier, certificates = GOLDEN_ROLLING[protocol]
    checkpoints = _run_golden_cell(protocol, checkpoint_interval=None).replicas[0].checkpoints
    assert checkpoints.rolling.hex() == rolling
    assert checkpoints.frontier == frontier
    assert checkpoints.certificates_formed == certificates
