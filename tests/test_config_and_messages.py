"""Unit and property-based tests for the deployment configuration and the
SpotLess message vocabulary."""

import dataclasses
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SpotLessConfig
from repro.core.messages import Claim, ProposeMessage
from repro.core.timeouts import AdaptiveTimeout
from repro.crypto.certificates import Certificate, Signature
from repro.crypto.digest import digest_bytes
from repro.ledger.kvtable import KeyValueTable
from repro.net import sizes
from repro.net.sizes import MessageSizeModel
from repro.runtime.quorum import DeploymentConfig
from repro.sim.engine import Simulator
from repro.workload import ycsb
from repro.workload.ycsb import YcsbWorkload
from tests.transactions import txn

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------------------------
# configuration arithmetic
# ---------------------------------------------------------------------------


@given(st.integers(min_value=4, max_value=400))
@settings(max_examples=60, deadline=None)
def test_quorum_arithmetic_satisfies_the_bft_bounds(n):
    """n > 3f, quorum = n − f, and two quorums always intersect in f + 1 replicas."""
    config = SpotLessConfig(num_replicas=n)
    assert n > 3 * config.f
    assert config.quorum == n - config.f
    assert config.weak_quorum == config.f + 1
    # Quorum intersection: two sets of size n − f overlap in ≥ n − 2f ≥ f + 1.
    assert 2 * config.quorum - n >= config.weak_quorum


@given(st.integers(min_value=4, max_value=100), st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_primary_rotation_covers_every_replica_once_per_n_views(n, start_view):
    """Over any window of n consecutive views each replica is primary exactly once."""
    config = SpotLessConfig(num_replicas=n)
    primaries = [config.primary_of(0, view) for view in range(start_view, start_view + n)]
    assert sorted(primaries) == list(range(n))


@given(
    st.integers(min_value=4, max_value=64),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_instances_in_the_same_view_have_distinct_primaries(n, instance, view):
    """Section 4.1: id(P_{i,v}) = (i + v) mod n gives each instance its own primary."""
    config = SpotLessConfig(num_replicas=n)
    instance = instance % n
    other = (instance + 1) % n
    assert config.primary_of(instance, view) != config.primary_of(other, view)


def test_instance_count_validation():
    with pytest.raises(ValueError):
        SpotLessConfig(num_replicas=4, num_instances=5)
    with pytest.raises(ValueError):
        SpotLessConfig(num_replicas=3)
    with pytest.raises(ValueError):
        SpotLessConfig(num_replicas=4, batch_size=0)


def test_spotless_knob_inventory_holds_only_the_papers_parameters():
    """A SpotLess replica runs only the paper's rules: the counterfactuals the
    ablations measure (GST pacemaker, exponential back-off, client binding)
    are classes in ``repro.bench.ablations``, never a config switch."""
    base = {field.name for field in dataclasses.fields(DeploymentConfig)}
    own = {field.name for field in dataclasses.fields(SpotLessConfig)} - base
    assert own == {"recording_timeout", "certifying_timeout", "enable_fast_path"}
    assert list(inspect.signature(AdaptiveTimeout).parameters) == ["initial"]
    naming = [
        str(path.relative_to(SRC))
        for package in ("core", "runtime", "protocols")
        for path in sorted((SRC / package).rglob("*.py"))
        if "ExponentialBackoff" in path.read_text(encoding="utf-8")
    ]
    assert naming == []


def test_workload_and_wire_size_inventory_holds_only_the_model_sweeps():
    """The Section 6 workload and the Section 6.1 wire sizes are module
    constants: only the model's Figure 7(b)/(d) sweeps vary a size, and the
    YCSB generator, the table and the simulator take no workload setting."""
    assert list(inspect.signature(YcsbWorkload).parameters) == ["rng"]
    assert list(inspect.signature(KeyValueTable).parameters) == []
    assert {field.name for field in dataclasses.fields(MessageSizeModel)} == {
        "batch_size",
        "transaction_bytes",
    }
    assert list(inspect.signature(Simulator).parameters) == ["max_events"]
    # No settings class is left beside them in the modules that define them.
    defined = {
        name
        for module in (ycsb, sizes)
        for name, value in vars(module).items()
        if inspect.isclass(value) and value.__module__ == module.__name__
    }
    assert defined == {"YcsbWorkload", "MessageSizeModel"}


# ---------------------------------------------------------------------------
# claims and CP entries
# ---------------------------------------------------------------------------


def test_failure_claim_has_no_digest():
    claim = Claim.failure(7)
    assert claim.is_failure
    assert claim.view == 7


def test_regular_claim_statement_pairs_view_and_digest():
    claim = Claim(view=3, digest=b"abc")
    assert not claim.is_failure
    assert (claim.view, claim.digest) == (3, b"abc")


# ---------------------------------------------------------------------------
# message canonical encodings and digests
# ---------------------------------------------------------------------------


def _propose(view=1, batch=(b"t",), parent=b"genesis", parent_view=0, instance=0):
    return ProposeMessage(
        instance=instance,
        view=view,
        transactions=tuple(txn(tag) for tag in batch),
        parent_digest=parent,
        parent_view=parent_view,
    )


def test_proposal_digest_changes_with_every_field():
    base = _propose()
    variants = [
        _propose(view=2),
        _propose(batch=(b"u",)),
        _propose(parent=b"other"),
        _propose(parent_view=1),
        _propose(instance=1),
    ]
    digests = {message.digest() for message in [base] + variants}
    assert len(digests) == len(variants) + 1


def test_proposal_digest_is_deterministic():
    assert _propose().digest() == _propose().digest()


def test_proposal_digest_memo_is_per_object_and_never_inherited():
    from dataclasses import replace

    message = _propose()
    assert message.digest() is message.digest()  # hashed once per object
    assert message.digest() == digest_bytes(message.canonical_fields())
    # An in-flight rewrite (the faults layer uses dataclasses.replace) builds
    # a new object: it gets its own digest, not the original's cached one.
    rewritten = replace(message, transactions=(txn(b"phantom"),))
    assert "_digest" not in rewritten.__dict__
    assert rewritten.digest() == _propose(batch=(b"phantom",)).digest()
    assert rewritten.digest() != message.digest()
    # The memo is declared with compare=False: equality and hashing ignore it.
    twin = _propose()
    assert twin == message and hash(twin) == hash(message)
    assert replace(message) == message and replace(message).digest() == message.digest()


_signatures = st.builds(Signature, signer=st.text(max_size=12), tag=st.binary(max_size=16))
_certificates = st.builds(
    Certificate,
    statement=st.tuples(st.integers(min_value=-1, max_value=2 ** 40), st.binary(max_size=32)),
    signatures=st.lists(_signatures, max_size=5).map(tuple),
)


@given(
    st.integers(min_value=0, max_value=2 ** 20),
    st.integers(min_value=0, max_value=2 ** 40),
    st.lists(st.binary(max_size=40), max_size=8),
    st.binary(max_size=40),
    st.one_of(st.just(-1), st.integers(min_value=0, max_value=2 ** 40)),
    st.one_of(st.none(), _certificates),
    st.lists(st.integers(min_value=0, max_value=200), max_size=7),
)
@settings(max_examples=150, deadline=None)
def test_proposal_digest_matches_the_canonical_encoding(
    instance, view, batch, parent, parent_view, certificate, claim_quorum
):
    # ProposeMessage.digest() assembles its bytes inline; every batch size,
    # a genesis or later parent, a certificate of several signers or none,
    # and an empty or non-empty claim quorum must hash as the fields do.
    message = ProposeMessage(
        instance=instance,
        view=view,
        transactions=tuple(txn(tag) for tag in batch),
        parent_digest=parent,
        parent_view=parent_view,
        parent_certificate=certificate,
        parent_claim_quorum=tuple(claim_quorum),
    )
    assert message.digest() == digest_bytes(message.canonical_fields())


def test_proposal_identities_hash_the_carried_transactions_digests():
    """A proposal carries its transactions but is named by their digests:
    the values below are what the same batch hashed to when a proposal
    named it by transaction digest, so carrying the transactions left every
    proposal, PrePrepare batch and chain node digest as it was."""
    from repro.protocols.hotstuff.replica import chain_node_digest
    from repro.protocols.pbft.messages import PrePrepareMessage
    from repro.workload.requests import Operation, Transaction

    batch = (
        Transaction(client_id=1, sequence=2, operations=(Operation.write(5, b"v"),)),
        Transaction(client_id=2, sequence=0, operations=(Operation.read(6),)),
    )
    propose = ProposeMessage(instance=1, view=3, transactions=batch, parent_digest=b"p" * 32, parent_view=2)
    assert propose.digest().hex() == "6904882fae2b8774255ecd2b78d8bbaaf601c6bc00c53b2424043718af028ad3"
    preprepare = PrePrepareMessage(instance=0, view=0, sequence=1, transactions=batch)
    assert preprepare.batch_digest() == b"".join(transaction.digest() for transaction in batch)
    assert preprepare.batch_digest().hex().startswith("c7b6d2647e299f6fc2c2dfae64dc86b7")
    assert chain_node_digest(4, b"p" * 32, batch).hex() == (
        "fb7762f46434dc7a779714878086ef2b8e87add8ca7270a039c2f6a84b00e06f"
    )


def test_messages_are_hashable_and_frozen():
    message = _propose()
    with pytest.raises(Exception):
        message.view = 2  # type: ignore[misc]
    assert {message: "ok"}[message] == "ok"


# ---------------------------------------------------------------------------
# records: a direct-store constructor, the rest the dataclass's own
# ---------------------------------------------------------------------------

#: Modules whose classes built per message, block or transaction are
#: ``repro.net.record.record`` classes: every frozen dataclass they define.
RECORD_MODULES = (
    "repro.net.message",
    "repro.core.messages",
    "repro.protocols.pbft.messages",
    "repro.protocols.hotstuff.messages",
    "repro.ledger.block",
    "repro.recovery.messages",
    "repro.workload.requests",
    "repro.crypto.certificates",
)


def _frozen_dataclasses():
    import dataclasses
    import importlib

    classes = []
    for name in RECORD_MODULES:
        for value in vars(importlib.import_module(name)).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                classes.append(value)
    assert len(classes) == 32  # a new class in these modules is checked too
    return classes


def _field_specs(cls):
    import dataclasses

    return [
        (f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
        for f in dataclasses.fields(cls)
    ]


def _plain_twin(cls):
    """The class ``@dataclass(frozen=True[, slots=True])`` makes of ``cls``."""
    import dataclasses

    specs = [
        (f.name, f.type, dataclasses.field(
            default=f.default, init=f.init, repr=f.repr, compare=f.compare, hash=f.hash
        ))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(
        cls.__name__, specs, bases=cls.__bases__, frozen=True, slots="__slots__" in cls.__dict__
    )


def test_record_constructors_store_fields_without_setattr():
    # A frozen dataclass's generated __init__ writes each field through
    # object.__setattr__; a record's stores it in the instance __dict__ or
    # through the slot descriptor.
    from repro.net.record import RECORD_FILE_PREFIX

    for cls in _frozen_dataclasses():
        code = cls.__init__.__code__
        assert code.co_filename.startswith(RECORD_FILE_PREFIX), cls
        assert "__setattr__" not in code.co_names, cls


def test_record_classes_behave_like_their_plain_dataclass_twins():
    import dataclasses
    import inspect

    for cls in _frozen_dataclasses():
        twin = _plain_twin(cls)
        assert _field_specs(cls) == _field_specs(twin), cls
        assert inspect.signature(cls) == inspect.signature(twin), cls
        assert getattr(cls, "__match_args__", ()) == getattr(twin, "__match_args__", ()), cls
        init = [f for f in dataclasses.fields(cls) if f.init]
        given_all = {f.name: (index, f.name) for index, f in enumerate(init)}
        given_required = {
            name: value for name, value in given_all.items()
            if next(f for f in init if f.name == name).default is dataclasses.MISSING
        }
        for kwargs in (given_all, given_required):
            built, again, plain = cls(**kwargs), cls(*kwargs.values()), twin(**kwargs)
            assert built == again and hash(built) == hash(again) == hash(plain), cls
            assert repr(built) == repr(plain), cls
            assert [getattr(built, f.name) for f in dataclasses.fields(cls)] == [
                getattr(plain, f.name) for f in dataclasses.fields(twin)
            ], cls
            if init:
                name = init[0].name
                changed = dataclasses.replace(built, **{name: "changed"})
                assert changed != built, cls
                assert repr(changed) == repr(dataclasses.replace(plain, **{name: "changed"})), cls
            for f in dataclasses.fields(cls):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(built, f.name, "assigned")


def test_record_memos_stay_out_of_the_instance_after_construction_and_replace():
    from dataclasses import replace

    from repro.ledger.block import Block
    from repro.workload.requests import Operation, Transaction

    message = _propose()
    assert "_digest" not in message.__dict__ and message._digest is None
    message.digest()
    assert "_digest" in message.__dict__
    rebuilt = replace(message, view=2)
    assert "_digest" not in rebuilt.__dict__ and rebuilt._digest is None

    # The slotted records have no __dict__: the memo is a slot set to None.
    for record in (
        Transaction(client_id=1, sequence=2, operations=(Operation.read(3),)),
        Block(height=1, parent_digest=b"p", transactions=(b"t",)),
    ):
        assert not hasattr(record, "__dict__") and record._digest is None
        record.digest()
        assert record._digest is not None
        assert replace(record)._digest is None and replace(record) == record
