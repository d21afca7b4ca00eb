"""Tests for the wire-size model, ledger, KV table and workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.block import Block, BlockProof
from repro.crypto.digest import canonical_bytes, digest_bytes, digest_to_int
from repro.ledger.execution import ExecutionEngine
from repro.ledger.kvtable import KeyValueTable
from repro.ledger.ledger import Ledger
from repro.net.sizes import SIGNATURE_BYTES, MessageSizeModel
from repro.workload.requests import Operation, Transaction
from repro.workload.ycsb import RECORD_COUNT, VALUE_BYTES, YcsbWorkload
from repro.sim.rng import DeterministicRng


# ---------------------------------------------------------------------------
# wire sizes
# ---------------------------------------------------------------------------


def test_reference_sizes_match_the_paper():
    sizes = MessageSizeModel(batch_size=100, transaction_bytes=48)
    assert sizes.proposal_bytes(100) == 5400
    assert sizes.reply_bytes() == 1748
    assert sizes.control_bytes() == 432


def test_proposal_size_scales_with_batch_and_transaction_size():
    base = MessageSizeModel(batch_size=100, transaction_bytes=48)
    bigger_batch = MessageSizeModel(batch_size=200, transaction_bytes=48)
    bigger_txn = MessageSizeModel(batch_size=100, transaction_bytes=1600)
    assert bigger_txn.proposal_bytes(100) > base.proposal_bytes(100)
    assert bigger_batch.reply_bytes() > base.reply_bytes()


def test_a_proposal_is_priced_by_the_transactions_it_carries():
    sizes = MessageSizeModel(batch_size=100, transaction_bytes=48)
    # A no-op carries nothing and pays the header alone; each transaction
    # adds its bytes and its share of the per-transaction overhead.
    assert sizes.proposal_bytes(0) == 72
    assert sizes.proposal_bytes(50) == (72 + 5400) / 2
    assert sizes.proposal_bytes(200) - sizes.proposal_bytes(100) == 5400 - 72


def test_control_and_certificate_sizes_grow_with_signatures():
    sizes = MessageSizeModel()
    assert sizes.control_bytes(signatures=2) == sizes.control_bytes() + 2 * SIGNATURE_BYTES
    assert sizes.certificate_bytes(85) > sizes.certificate_bytes(3)


# ---------------------------------------------------------------------------
# KV table
# ---------------------------------------------------------------------------


def test_table_write_then_read_round_trip_and_padding():
    """A short value is stored zero-padded to the record size."""
    short, padded = KeyValueTable(), KeyValueTable()
    short.write(3, b"xy")
    padded.write(3, b"xy" + b"\x00" * (VALUE_BYTES - 2))
    assert short.state_digest() == padded.state_digest()


def test_table_rejects_out_of_range_keys():
    with pytest.raises(KeyError):
        KeyValueTable().write(-1, b"v")


def test_workload_values_and_table_bounds_are_the_section_6_constants():
    """A write carries one transaction's wire payload, and the table holds
    exactly the workload's key range."""
    workload = YcsbWorkload(rng=DeterministicRng(4))
    write = next(
        op for t in workload.transactions(client_id=0, count=20) for op in t.operations
        if op.kind == "write"
    )
    assert len(write.value) == MessageSizeModel().transaction_bytes
    table = KeyValueTable()
    table.write(RECORD_COUNT - 1, write.value)
    with pytest.raises(KeyError):
        table.write(RECORD_COUNT, write.value)


def test_table_state_digest_reflects_writes_only():
    a = KeyValueTable()
    b = KeyValueTable()
    assert a.state_digest() == b.state_digest()
    a.write(1, b"x" * 48)
    assert a.state_digest() != b.state_digest()
    b.write(1, b"x" * 48)
    assert a.state_digest() == b.state_digest()


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


def test_ledger_appends_hash_chained_blocks():
    ledger = Ledger()
    ledger.append([b"t1", b"t2"], proof=BlockProof("spotless", 1, 0, ("replica:0",)))
    ledger.append([b"t3"])
    assert ledger.height == 2
    assert ledger.verify_chain()
    assert ledger.transaction_digests() == [b"t1", b"t2", b"t3"]


def test_block_digest_changes_with_content():
    one = Block(height=1, parent_digest=b"\x00" * 32, transactions=(b"a",))
    two = Block(height=1, parent_digest=b"\x00" * 32, transactions=(b"b",))
    assert one.digest() != two.digest()


def test_block_digest_matches_canonical_encoding():
    # Block.digest() assembles its encoding inline (to reuse the memoized
    # proof sub-encoding); it must stay byte-identical to hashing the
    # canonical fields the slow way.
    proof = BlockProof(protocol="pbft", view=3, instance=1, quorum=("replica:0", "replica:1"))
    cases = [
        Block(height=0, parent_digest=b"\x00" * 32, transactions=()),
        Block(height=7, parent_digest=b"\x11" * 32, transactions=(b"a" * 32, b"b" * 32)),
        Block(height=7, parent_digest=b"\x11" * 32, transactions=(b"a" * 32,), proof=proof),
        Block(height=2, parent_digest=b"\x22" * 32, transactions=(), proof=proof),
    ]
    for block in cases:
        assert block.digest() == digest_bytes(block.canonical_fields())
    # The proof sub-encoding memo must also match a fresh canonical pass.
    assert proof.encoded() == canonical_bytes(proof.canonical_fields())
    assert proof.encoded() is proof.encoded()


@given(
    st.text(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.integers(min_value=-5, max_value=2 ** 20),
    st.lists(st.text(max_size=12), max_size=6),
)
@settings(max_examples=80)
def test_block_proof_encoding_matches_canonical_bytes(protocol, view, instance, quorum):
    proof = BlockProof(protocol=protocol, view=view, instance=instance, quorum=tuple(quorum))
    assert proof.encoded() == canonical_bytes(proof.canonical_fields())


_keys = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
_operations = st.one_of(
    st.builds(Operation.read, _keys),
    st.builds(Operation.write, _keys, st.binary(max_size=64)),
    st.builds(
        Operation,
        st.sampled_from(["read", "write"]),
        _keys,
        st.one_of(st.none(), st.binary(max_size=64)),
    ),
)


@given(
    st.integers(min_value=-3, max_value=2 ** 32),
    st.integers(min_value=0, max_value=2 ** 48),
    st.lists(_operations, max_size=6),
)
@settings(max_examples=120)
def test_transaction_digest_matches_the_canonical_encoding(client_id, sequence, operations):
    # Transaction.digest() assembles its bytes inline; reads, no-ops and
    # writes, several per transaction and a None value included, must hash
    # exactly as the canonical fields do.
    transaction = Transaction(client_id=client_id, sequence=sequence, operations=tuple(operations))
    assert transaction.digest() == digest_bytes(transaction.canonical_fields())


def _position_records():
    """One instance of each record a run keeps per executed position."""
    from repro.recovery.messages import SlotEntry, SlotRecord

    operation = Operation.write(5, b"v" * 48)
    transaction = Transaction(client_id=1, sequence=3, operations=(operation, Operation.read(6)))
    proof = BlockProof(protocol="pbft", view=3, instance=1, quorum=("replica:0", "replica:1"))
    block = Block(height=7, parent_digest=b"\x11" * 32, transactions=(transaction.digest(),), proof=proof)
    record = SlotRecord(view=3, instance=1, transactions=(transaction,), slot_digest=b"s")
    return [
        operation,
        transaction,
        proof,
        block,
        record,
        SlotEntry(position=7, records=(record,)),
    ]


def test_position_records_carry_no_instance_dict_even_with_the_memo_filled():
    from dataclasses import replace

    records = _position_records()
    assert len({type(record) for record in records}) == 6
    for record in records:
        for memoised in ("digest", "encoded"):
            if hasattr(record, memoised):
                assert getattr(record, memoised)() is getattr(record, memoised)()
        assert not hasattr(record, "__dict__"), type(record).__name__
    # The memo is a declared field, but never a constructor argument: a
    # rewritten copy starts without it and hashes its own content.
    transaction, block = records[1], records[3]
    assert replace(transaction, sequence=4).digest() != transaction.digest()
    assert replace(transaction, sequence=4).digest() == Transaction(1, 4, transaction.operations).digest()
    assert replace(block, height=8).digest() != block.digest()
    assert replace(block.proof, view=4).encoded() != block.proof.encoded()
    # Nor is it compared, hashed or printed.
    twin = Transaction(1, 3, transaction.operations)
    assert twin == transaction and hash(twin) == hash(transaction)
    assert "_digest" not in repr(transaction) and "_encoded" not in repr(block.proof)
    with pytest.raises(TypeError):
        Transaction(1, 3, transaction.operations, b"forged digest")


def test_position_records_survive_pickle_and_deepcopy():
    # Frozen + slots dataclasses have no __dict__ to pickle: they rely on
    # the __getstate__/__setstate__ the dataclass decorator generates.
    import copy
    import pickle

    for record in _position_records():
        memos = [name for name in ("digest", "encoded") if hasattr(record, name)]
        expected = [getattr(record, name)() for name in memos]  # fills the memo
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert clone == record and type(clone) is type(record)
            assert hash(clone) == hash(record)
            assert [getattr(clone, name)() for name in memos] == expected


# ---------------------------------------------------------------------------
# execution engine
# ---------------------------------------------------------------------------


def make_engine():
    table = KeyValueTable()
    return ExecutionEngine(table=table, ledger=Ledger())


def test_execution_applies_writes_and_appends_block():
    engine = make_engine()
    txn = Transaction(client_id=1, sequence=0, operations=(Operation.write(5, b"v" * 48),))
    read = Transaction(client_id=2, sequence=0, operations=(Operation.read(5), Operation.read(6)))
    engine.execute_batch([txn, read])
    assert engine.ledger.height == 1
    assert engine.ledger.head.transactions == (txn.digest(), read.digest())
    # A read changes no state and its value reaches no one (an Inform carries
    # the digest), so only the write touched the table ...
    expected = KeyValueTable()
    expected.write(5, b"v" * 48)
    assert engine.state_digest() == expected.state_digest()
    # ... and nothing is kept per transaction: the engine holds the table
    # and the ledger.
    assert not hasattr(engine, "results") and not hasattr(engine, "_results")


def test_identical_batches_produce_identical_state_digests():
    first = make_engine()
    second = make_engine()
    txns = [
        Transaction(client_id=1, sequence=i, operations=(Operation.write(i, bytes([i]) * 48),))
        for i in range(5)
    ]
    first.execute_batch(txns)
    second.execute_batch(txns)
    assert first.state_digest() == second.state_digest()


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


def test_ycsb_write_fraction_roughly_matches_configuration():
    workload = YcsbWorkload(rng=DeterministicRng(1))
    transactions = workload.transactions(client_id=0, count=500)
    writes = sum(1 for t in transactions for op in t.operations if op.kind == "write")
    assert 0.8 < writes / 500 < 1.0


def test_ycsb_keys_stay_within_the_table():
    workload = YcsbWorkload(rng=DeterministicRng(2))
    for transaction in workload.transactions(client_id=0, count=200):
        for operation in transaction.operations:
            assert 0 <= operation.key < RECORD_COUNT


def test_ycsb_transactions_are_unique_per_sequence():
    workload = YcsbWorkload(rng=DeterministicRng(3))
    digests = {t.digest() for t in workload.transactions(client_id=0, count=100)}
    assert len(digests) == 100


@given(st.integers(min_value=0, max_value=1_000_000), st.integers(min_value=1, max_value=128))
@settings(max_examples=60)
def test_instance_assignment_is_stable_and_in_range(sequence, instances):
    txn = Transaction(client_id=1, sequence=sequence, operations=(Operation.read(0),))
    assignment = txn.instance_assignment(instances)
    assert 0 <= assignment < instances
    assert assignment == txn.instance_assignment(instances)
    assert assignment == digest_to_int(txn.digest()) % instances
