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
    assert batch == tuple(t.digest() for t in txns[:3])
    assert pool.take_batch(10) == tuple(t.digest() for t in txns[3:])
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
    assert pool.take_batch(1) == (txn.digest(),)
    assert pool.pending_count() == 0
    # A retransmission of a proposed-but-unexecuted request queues it again
    # so a proposal that died on an abandoned branch is eventually retried.
    assert pool.admit(txn) is AdmitResult.DUPLICATE
    assert pool.pending_count() == 1
    # While it is queued, further retransmissions are no-ops.
    pool.admit(txn)
    assert pool.pending_count() == 1
    # It is no longer marked proposed, so the next batch takes it.
    assert pool.take_batch(1) == (txn.digest(),)


def test_mempool_has_unproposed_skips_like_take_batch():
    pool = Mempool()
    txn = make_txn(0)
    pool.admit(txn)
    assert pool.has_unproposed(0)
    # A backup saw another replica's proposal cover the request.
    pool.mark_proposed((txn.digest(),))
    assert not pool.has_unproposed(0)
    assert pool.pending_count() == 0
    # The proposal was abandoned: a retransmission queues it again.
    assert pool.admit(txn) is AdmitResult.DUPLICATE
    assert pool.has_unproposed(0)
    assert pool.take_batch(1) == (txn.digest(),)


def test_mempool_per_shard_isolation():
    pool = Mempool(num_shards=3)
    by_shard = {0: make_txn(0), 1: make_txn(1), 2: make_txn(2)}
    for shard, txn in by_shard.items():
        pool.admit(txn, shard=shard)
    assert [pool.pending_count(shard=shard) for shard in range(3)] == [1, 1, 1]
    assert pool.pending_count() == 3
    assert pool.has_pending(1)
    assert pool.take_batch(10, shard=1) == (by_shard[1].digest(),)
    assert not pool.has_pending(1)
    assert pool.pending_count(shard=0) == 1
    assert pool.pending_count() == 2


def test_mempool_register_payload_does_not_queue():
    pool = Mempool()
    txn = make_txn(0)
    digest = pool.register_payload(txn)
    assert pool.get(digest) is txn
    assert digest in pool
    assert pool.pending_count() == 0


# ---------------------------------------------------------------------------
# ExecutionPipeline
# ---------------------------------------------------------------------------


def make_pipeline(num_shards=1, resolve_noop=None, inform=None):
    pool = Mempool(num_shards=num_shards)
    table = KeyValueTable()
    engine = ExecutionEngine(table=table, ledger=Ledger())
    pipeline = ExecutionPipeline(
        mempool=pool,
        engine=engine,
        protocol_name="test",
        quorum=3,
        inform=inform,
        resolve_noop=resolve_noop,
    )
    return pool, pipeline


def test_pipeline_gap_stalls_execution_until_filled():
    pool, pipeline = make_pipeline()
    first, second = make_txn(0), make_txn(1)
    pool.admit(first)
    pool.admit(second)
    pipeline.deliver(1, (second.digest(),))
    assert pipeline.executed_transactions == 0
    assert pipeline.next_execution_position == 0
    pipeline.deliver(0, (first.digest(),))
    assert pipeline.executed_transactions == 2
    assert pipeline.next_execution_position == 2
    assert sorted(pipeline.committed_map()) == [(0, 0), (1, 0)]


def test_pipeline_missing_payload_stalls_then_resumes():
    pool, pipeline = make_pipeline()
    txn = make_txn(0)
    pipeline.deliver(0, (txn.digest(),))
    assert pipeline.executed_transactions == 0
    pool.admit(txn)  # late payload dissemination
    pipeline.advance()
    assert pipeline.executed_transactions == 1


def test_pipeline_resolves_reconstructible_noops():
    noop = Transaction(client_id=-1, sequence=0, operations=(Operation.noop(),))

    def resolve(digest, position):
        return noop if digest == noop.digest() else None

    pool, pipeline = make_pipeline(resolve_noop=resolve)
    pipeline.deliver(0, (noop.digest(),))
    # The no-op executes (unblocking later positions) but is not counted or
    # informed, and its payload is now locally known.
    assert pipeline.next_execution_position == 1
    assert pipeline.executed_transactions == 0
    assert pool.get(noop.digest()) is noop


def test_pipeline_informs_clients_once_per_fresh_transaction():
    informed = []
    pool, pipeline = make_pipeline(inform=informed.append)
    txn = make_txn(0)
    pool.admit(txn)
    pipeline.deliver(0, (txn.digest(),))
    # A second decision carrying the same digest does not re-execute it.
    pipeline.deliver(1, (txn.digest(),))
    assert informed == [txn]
    assert pipeline.executed_transactions == 1
    assert pipeline.decided_batches == 2


def test_pipeline_duplicate_position_is_ignored():
    pool, pipeline = make_pipeline()
    first, second = make_txn(0), make_txn(1)
    pool.admit(first)
    pool.admit(second)
    pipeline.deliver(0, (first.digest(),))
    pipeline.deliver(0, (second.digest(),))
    assert pipeline.decided_batches == 1
    assert pipeline.committed_map() == {(0, 0): first.digest()}


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
    "spotless": ("8210f86bffb315451ab841e1cedf0bc36055dda7887d552938142a4c4f178dcd", 392),
    "pbft": ("ba5344eabfba8c0b66e1b896fc167ac850d297a8062e252c420366286690eccf", 969),
    # Re-pinned when RCC stopped proposing no-ops no round needs.
    "rcc": ("ed9bacf7b24f7f60a6a79d62d5ce3c0e4ca5a27a85f22f7b308c69eb86740cdc", 875),
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
    reworked and every later change to it is held to them.
    """
    cluster = _run_golden_cell("spotless")
    assert cluster.simulator.processed_events == 19764
    assert cluster.metrics.counter("network.messages_sent").value == 15639
    assert cluster.metrics.counter("network.bytes_sent").value == 7245398
    per_replica = [list(replica.instances.values()) for replica in cluster.replicas]
    assert [sum(i.views_entered for i in instances) for instances in per_replica] == [833] * 4
    assert [sum(i.syncs_sent for i in instances) for instances in per_replica] == [829, 831, 830, 830]


#: protocol -> (events, messages, bytes, per-replica view, per-replica
#: committed chain height), recorded before the lock was made to move.
HOTSTUFF_FAMILY_SCHEDULE = {
    "hotstuff": (4555, 4566, 1363842, [206] * 4, [204] * 4),
    "narwhal-hs": (4531, 4539, 1967306, [204, 205, 204, 204], [202, 203, 202, 202]),
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
GOLDEN_ROLLING = {
    "hotstuff": ("451b80c896c95194e43c87411ff6f3ae1ea8ad774d8fc0285292424932a1fe25", 204, 12),
    "pbft": ("7e19b707d97a363a64e3873d9291ead2b8b2661c805ad8be939f8e4bd5b7508c", 970, 60),
    "spotless": ("6d3c6c206a4659975f3564653a1af586d1ec87d47118de0b627b6eabee61c030", 203, 12),
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
