"""Unit and property-based tests for the crypto layer."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.certificates import Certificate, Signature
from repro.crypto.digest import canonical_bytes, digest_bytes, digest_to_int


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def test_digest_is_deterministic_and_32_bytes():
    assert digest_bytes(("a", 1)) == digest_bytes(("a", 1))
    assert len(digest_bytes(("a", 1))) == 32


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


#: The records that define ``canonical_fields``: each is the reference that an
#: encoder assembled inline on the hot path is tested against, in the test
#: named next to it.  A wire message is its fields and has no canonical form.
CANONICAL_REFERENCES = {
    "Transaction": "test_net_ledger_workload.py::test_transaction_digest_matches_the_canonical_encoding",
    "Operation": "test_net_ledger_workload.py::test_transaction_digest_matches_the_canonical_encoding",
    "ProposeMessage": "test_config_and_messages.py::test_proposal_digest_matches_the_canonical_encoding",
    "Certificate": "test_config_and_messages.py::test_proposal_digest_matches_the_canonical_encoding",
    "Signature": "test_config_and_messages.py::test_proposal_digest_matches_the_canonical_encoding",
    "Block": "test_net_ledger_workload.py::test_block_digest_matches_canonical_encoding",
    "BlockProof": "test_net_ledger_workload.py::test_block_proof_encoding_matches_canonical_bytes",
    "SlotRecord": "test_recovery.py::test_fold_entry_equals_the_generic_canonical_encoding",
    "SlotEntry": "test_recovery.py::test_fold_entry_equals_the_generic_canonical_encoding",
}


def test_only_the_inline_encoders_references_define_a_canonical_form():
    import ast
    from pathlib import Path

    import repro

    defining = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "canonical_fields" for item in node.body
            ):
                defining.add(node.name)
    assert defining == set(CANONICAL_REFERENCES)
    tests = Path(__file__).parent
    for reference in set(CANONICAL_REFERENCES.values()):
        filename, test = reference.split("::")
        module = ast.parse((tests / filename).read_text(encoding="utf-8"))
        assert any(isinstance(node, ast.FunctionDef) and node.name == test for node in module.body), reference


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
# certificates
# ---------------------------------------------------------------------------


def test_certificate_quorum_counts_distinct_signers():
    signatures = (Signature("a", b"1"), Signature("a", b"1"), Signature("b", b"2"))
    certificate = Certificate(statement=("x",), signatures=signatures)
    assert certificate.has_quorum(2)
    assert not certificate.has_quorum(3)


def test_certificate_counts_its_signers_once_and_a_replace_recounts():
    signatures = tuple(Signature(f"replica:{index}", b"") for index in range(3))
    certificate = Certificate(statement=(1, b"d"), signatures=signatures)
    assert certificate._signer_count is None
    assert certificate.has_quorum(3)
    assert certificate._signer_count == 3
    # The memo answers every later query; it is what is read, not the tuple.
    object.__setattr__(certificate, "_signer_count", 0)
    assert not certificate.has_quorum(1)
    object.__setattr__(certificate, "_signer_count", 3)
    # Never compared, hashed or printed.
    fresh = Certificate(statement=(1, b"d"), signatures=signatures)
    assert certificate == fresh and hash(certificate) == hash(fresh)
    assert "_signer_count" not in repr(certificate)
    # dataclasses.replace builds a certificate without the memo.
    fewer = dataclasses.replace(certificate, signatures=signatures[:2])
    assert fewer._signer_count is None
    assert not fewer.has_quorum(3)
    assert fewer.has_quorum(2)


def test_n_minus_f_signatures_from_f_plus_one_signers_are_no_quorum():
    # n = 4, f = 1: three signatures, but only two distinct signers.
    signatures = (Signature("replica:0", b""), Signature("replica:1", b""), Signature("replica:0", b""))
    certificate = Certificate(statement=(1, b"d"), signatures=signatures)
    assert not certificate.has_quorum(3)
    assert not certificate.has_quorum(3)  # the memoized answer agrees
    assert certificate.has_quorum(2)
