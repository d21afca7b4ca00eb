"""Unit and property-based tests for the crypto layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.authenticator import InvalidSignatureError, MacAuthenticator, Signature, SignatureScheme
from repro.crypto.certificates import Certificate, QuorumTracker, ThresholdSignature
from repro.crypto.costs import CryptoCostModel
from repro.crypto.digest import canonical_bytes, digest_bytes, digest_hex, digest_to_int
from repro.crypto.keys import KeyStore


def make_keychains(count=4):
    store = KeyStore(seed=99)
    names = [f"replica:{i}" for i in range(count)] + ["client:0"]
    return {name: store.keychain(name, names) for name in names}


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def test_digest_is_deterministic_and_32_bytes():
    assert digest_bytes(("a", 1)) == digest_bytes(("a", 1))
    assert len(digest_bytes(("a", 1))) == 32
    assert digest_hex(("a", 1)) == digest_bytes(("a", 1)).hex()


def test_digest_distinguishes_types_and_values():
    assert digest_bytes("1") != digest_bytes(1)
    assert digest_bytes(("a", "b")) != digest_bytes(("ab",))
    assert digest_bytes(True) != digest_bytes(1)
    assert digest_bytes(None) != digest_bytes(0)


def test_digest_of_dict_is_order_insensitive():
    assert digest_bytes({"x": 1, "y": 2}) == digest_bytes({"y": 2, "x": 1})


def test_canonical_encoding_format_is_pinned():
    """Block digests and the execution fold assemble this format by hand."""
    value = ("a", 1, True, None, 1.5, b"x", [2, -3], {"k": b"v"})
    assert canonical_bytes(value) == b"t8:sai1B1nf1.5bxt2:i2i-3d1:skbv"


def test_canonical_encoding_treats_subclasses_as_their_base_type():
    import enum
    from collections import namedtuple

    class Kind(enum.IntEnum):
        PROPOSE = 3

    Pair = namedtuple("Pair", "left right")
    assert canonical_bytes(Kind.PROPOSE) == canonical_bytes(3)
    assert canonical_bytes(Pair(b"l", "r")) == canonical_bytes((b"l", "r"))


def test_digest_rejects_unencodable_types():
    with pytest.raises(TypeError):
        digest_bytes(object())


@given(st.tuples(st.text(), st.integers(), st.binary(max_size=64)))
@settings(max_examples=50)
def test_digest_deterministic_for_arbitrary_tuples(value):
    assert digest_bytes(value) == digest_bytes(value)
    assert 0 <= digest_to_int(digest_bytes(value)) < 2 ** 256


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=30)
def test_digest_to_int_modulo_assigns_within_range(modulus):
    value = digest_to_int(digest_bytes(("x", modulus)))
    assert 0 <= value % modulus < modulus


# ---------------------------------------------------------------------------
# signatures and MACs
# ---------------------------------------------------------------------------


def test_signature_verifies_for_correct_signer():
    chains = make_keychains()
    signer = SignatureScheme(chains["replica:0"])
    verifier = SignatureScheme(chains["replica:1"])
    signature = signer.sign(("propose", 1))
    assert verifier.verify(("propose", 1), signature)


def test_signature_fails_for_tampered_value():
    chains = make_keychains()
    signer = SignatureScheme(chains["replica:0"])
    verifier = SignatureScheme(chains["replica:1"])
    signature = signer.sign(("propose", 1))
    assert not verifier.verify(("propose", 2), signature)


def test_signature_fails_for_wrong_claimed_signer():
    chains = make_keychains()
    signer = SignatureScheme(chains["replica:0"])
    verifier = SignatureScheme(chains["replica:1"])
    signature = signer.sign(("propose", 1))
    forged = Signature(signer="replica:2", tag=signature.tag)
    assert not verifier.verify(("propose", 1), forged)


def test_signature_unknown_signer_rejected():
    chains = make_keychains()
    verifier = SignatureScheme(chains["replica:1"])
    assert not verifier.verify("x", Signature(signer="stranger", tag=b"\x00" * 32))


def test_require_valid_raises_on_bad_signature():
    chains = make_keychains()
    signer = SignatureScheme(chains["replica:0"])
    verifier = SignatureScheme(chains["replica:1"])
    signature = signer.sign("value")
    with pytest.raises(InvalidSignatureError):
        verifier.require_valid("other", signature)


def test_mac_verifies_between_the_right_pair_only():
    chains = make_keychains()
    alice = MacAuthenticator(chains["replica:0"])
    bob = MacAuthenticator(chains["replica:1"])
    carol = MacAuthenticator(chains["replica:2"])
    tag = alice.tag("replica:1", "ping")
    assert bob.verify("replica:0", "ping", tag)
    assert not carol.verify("replica:0", "ping", tag)
    assert not bob.verify("replica:0", "pong", tag)


def test_mac_unknown_peer_rejected():
    chains = make_keychains()
    alice = MacAuthenticator(chains["replica:0"])
    assert not alice.verify("stranger", "ping", b"\x00" * 32)


# ---------------------------------------------------------------------------
# quorum tracking and certificates
# ---------------------------------------------------------------------------


def test_quorum_tracker_reports_completion_exactly_once():
    tracker = QuorumTracker(quorum=3)
    statement = (1, b"digest")
    assert tracker.add_vote(statement, "a") is False
    assert tracker.add_vote(statement, "b") is False
    assert tracker.add_vote(statement, "c") is True
    assert tracker.add_vote(statement, "d") is False
    assert tracker.count(statement) == 4


def test_quorum_tracker_ignores_duplicate_voters():
    tracker = QuorumTracker(quorum=2)
    tracker.add_vote(("s",), "a")
    assert tracker.add_vote(("s",), "a") is False
    assert tracker.count(("s",)) == 1


def test_quorum_tracker_builds_certificate_from_signatures():
    chains = make_keychains()
    tracker = QuorumTracker(quorum=3)
    statement = (5, b"d")
    for i in range(3):
        scheme = SignatureScheme(chains[f"replica:{i}"])
        tracker.add_vote(statement, f"replica:{i}", scheme.sign(statement))
    certificate = tracker.certificate(statement)
    assert certificate is not None
    assert certificate.has_quorum(3)
    assert len(set(certificate.signers())) == 3


def test_quorum_tracker_certificate_requires_signature_evidence():
    tracker = QuorumTracker(quorum=2)
    tracker.add_vote(("s",), "a", None)
    tracker.add_vote(("s",), "b", None)
    assert tracker.certificate(("s",)) is None


def test_certificate_quorum_counts_distinct_signers():
    signatures = (Signature("a", b"1"), Signature("a", b"1"), Signature("b", b"2"))
    certificate = Certificate(statement=("x",), signatures=signatures)
    assert certificate.has_quorum(2)
    assert not certificate.has_quorum(3)


def test_threshold_signature_size_tracks_partials():
    partials = tuple(Signature(f"r{i}", bytes([i])) for i in range(5))
    threshold = ThresholdSignature(statement=("v",), partials=partials)
    assert threshold.size == 5


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=40))
@settings(max_examples=40)
def test_quorum_tracker_reaches_quorum_iff_enough_distinct_voters(quorum, voters):
    tracker = QuorumTracker(quorum=quorum)
    statement = ("stmt",)
    for index in range(voters):
        tracker.add_vote(statement, f"voter-{index}")
    assert tracker.has_quorum(statement) == (voters >= quorum)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def test_signature_costs_dominate_mac_costs():
    costs = CryptoCostModel()
    assert costs.signature_verify > 50 * costs.mac_verify
    assert costs.signature_sign > 50 * costs.mac_generate


def test_cost_model_scaling_is_uniform():
    costs = CryptoCostModel().scaled(2.0)
    base = CryptoCostModel()
    assert costs.mac_verify == pytest.approx(base.mac_verify * 2)
    assert costs.signature_verify == pytest.approx(base.signature_verify * 2)


def test_cost_model_tasks_scale_with_counts():
    costs = CryptoCostModel()
    assert costs.verify_task(10).seconds == pytest.approx(10 * costs.signature_verify)
    assert costs.hash_task(1000).seconds == pytest.approx(1000 * costs.hash_per_byte)
    assert costs.handling_task(3).seconds == pytest.approx(3 * costs.message_handling)
