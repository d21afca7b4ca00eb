"""Unit and property-based tests for the deployment configuration and the
SpotLess message vocabulary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import proposal_digest
from repro.core.config import SpotLessConfig
from repro.core.messages import (
    AskMessage,
    Claim,
    CpEntry,
    InformMessage,
    ProposalForward,
    ProposeMessage,
    SyncMessage,
)
from repro.crypto.certificates import Certificate, Signature
from repro.crypto.digest import digest_bytes


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


# ---------------------------------------------------------------------------
# claims and CP entries
# ---------------------------------------------------------------------------


def test_failure_claim_has_no_digest():
    claim = Claim.failure(7)
    assert claim.is_failure
    assert claim.view == 7
    assert claim.statement() == (7, None)


def test_regular_claim_statement_pairs_view_and_digest():
    claim = Claim(view=3, digest=b"abc")
    assert not claim.is_failure
    assert claim.statement() == (3, b"abc")


def test_claims_with_different_digests_have_different_canonical_fields():
    first = Claim(view=3, digest=b"abc")
    second = Claim(view=3, digest=b"abd")
    assert first.canonical_fields() != second.canonical_fields()


def test_cp_entry_canonical_fields_round_trip():
    entry = CpEntry(view=5, digest=b"xyz")
    assert entry.canonical_fields() == (5, b"xyz")


# ---------------------------------------------------------------------------
# message canonical encodings and digests
# ---------------------------------------------------------------------------


def _propose(view=1, batch=(b"t",), parent=b"genesis", parent_view=0, instance=0):
    return ProposeMessage(
        instance=instance,
        view=view,
        transaction_digests=tuple(batch),
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
    digests = {proposal_digest(message) for message in [base] + variants}
    assert len(digests) == len(variants) + 1


def test_proposal_digest_is_deterministic():
    assert proposal_digest(_propose()) == proposal_digest(_propose())


def test_proposal_digest_memo_is_per_object_and_never_inherited():
    from dataclasses import replace

    message = _propose()
    assert message.digest() is message.digest()  # hashed once per object
    assert message.digest() == digest_bytes(message.canonical_fields())
    # An in-flight rewrite (the faults layer uses dataclasses.replace) builds
    # a new object: it gets its own digest, not the original's cached one.
    rewritten = replace(message, transaction_digests=(b"phantom",))
    assert "_digest" not in rewritten.__dict__
    assert rewritten.digest() == proposal_digest(_propose(batch=(b"phantom",)))
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
        transaction_digests=tuple(batch),
        parent_digest=parent,
        parent_view=parent_view,
        parent_certificate=certificate,
        parent_claim_quorum=tuple(claim_quorum),
    )
    assert message.digest() == digest_bytes(message.canonical_fields())


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_sync_canonical_fields_reflect_view_and_cp_set(view, digests):
    cp_set = tuple(CpEntry(view=index, digest=digest) for index, digest in enumerate(digests))
    message = SyncMessage(instance=0, view=view, claim=Claim.failure(view), cp_set=cp_set)
    fields = message.canonical_fields()
    assert fields[0] == "sync"
    assert fields[2] == view
    assert len(fields[4]) == len(cp_set)


def test_sync_retransmit_flag_is_part_of_the_canonical_encoding():
    plain = SyncMessage(instance=0, view=1, claim=Claim.failure(1))
    flagged = SyncMessage(instance=0, view=1, claim=Claim.failure(1), retransmit_flag=True)
    assert plain.canonical_fields() != flagged.canonical_fields()


def test_ask_and_forward_wrap_the_underlying_claim_and_proposal():
    claim = Claim(view=4, digest=b"p4")
    ask = AskMessage(instance=2, view=4, claim=claim)
    assert ask.canonical_fields()[0] == "ask"
    assert ask.canonical_fields()[3] == claim.canonical_fields()
    forward = ProposalForward(instance=2, propose=_propose())
    assert forward.canonical_fields()[0] == "forward"
    assert forward.canonical_fields()[2] == _propose().canonical_fields()


def test_inform_message_identifies_replica_client_and_transaction():
    inform = InformMessage(replica=3, client_id=9, transaction_digest=b"d")
    fields = inform.canonical_fields()
    assert fields == ("inform", 3, 9, b"d", True)


def test_messages_are_hashable_and_frozen():
    message = _propose()
    with pytest.raises(Exception):
        message.view = 2  # type: ignore[misc]
    assert {message: "ok"}[message] == "ok"
