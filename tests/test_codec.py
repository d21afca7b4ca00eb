"""``repro.codec.JsonRecord``: the one JSON form of every archived record."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch.fuzz import fuzz_spec
from repro.faults.injector import FaultEvent
from repro.scenarios.oracle import InvariantViolation, SloBreach, SloSpec
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.spec import PROTOCOLS, ScenarioSpec, overload_spec
from repro.triage.corpus import CorpusEntry
from repro.triage.signature import FailureSignature

ARCHIVES = Path(__file__).resolve().parent.parent / "fuzz-failures"


def _round_trip(record):
    return type(record).from_json_dict(json.loads(json.dumps(record.to_json_dict())))


specs = st.one_of(
    st.builds(fuzz_spec, st.integers(0, 2**20), st.integers(0, 500)),
    st.builds(overload_spec, st.sampled_from(PROTOCOLS), seed=st.integers(1, 1000)),
)

finite = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
counters = st.dictionaries(st.sampled_from(("view_changes", "timeout_fires", "sync_retries")), st.integers(0, 99))
violations = st.builds(
    InvariantViolation,
    invariant=st.sampled_from(("agreement", "no-fork", "liveness", "liveness-straggler")),
    time=finite,
    detail=st.text(max_size=20),
)
breaches = st.builds(
    SloBreach,
    metric=st.sampled_from(("p50", "p99", "queue")),
    ceiling=finite,
    started_at=finite,
    ended_at=st.none() | finite,
    peak=finite,
)
trace_dumps = st.none() | st.fixed_dictionaries(
    {
        "format": st.just(1),
        "records": st.lists(st.lists(st.integers(0, 9) | st.text(max_size=4), max_size=3), max_size=3),
        "meta": st.dictionaries(st.text(max_size=4), st.integers() | st.none(), max_size=2),
    }
)
results = st.builds(
    ScenarioResult,
    spec=specs,
    confirmed_transactions=st.integers(0, 10**6),
    executed_transactions=st.integers(0, 10**6),
    committed_per_replica=st.lists(st.integers(0, 999), max_size=7).map(tuple),
    violations=st.lists(violations, max_size=3).map(tuple),
    checks_run=st.integers(0, 100),
    stragglers=st.lists(st.integers(0, 6), max_size=3).map(tuple),
    counters=counters,
    slo_breaches=st.lists(breaches, max_size=3).map(tuple),
    counters_per_replica=st.lists(counters, max_size=4).map(tuple),
    trace_dump=trace_dumps,
)


@given(specs)
@settings(max_examples=60, deadline=None)
def test_spec_round_trips_through_json(spec):
    assert _round_trip(spec) == spec


@given(results)
@settings(max_examples=60, deadline=None)
def test_result_round_trips_through_json(result):
    assert _round_trip(result) == result


def test_encode_writes_every_field_in_declaration_order_and_the_format():
    event = FaultEvent(kind="partition", at=0.1, groups=((0, 1), (2, 3)))
    assert list(event.to_json_dict()) == ["kind", "at", "until", "replicas", "victims", "groups", "factor"]
    assert event.to_json_dict()["groups"] == [[0, 1], [2, 3]]
    signature = FailureSignature(protocol="rcc", invariants=("liveness",), stragglers=(1,))
    assert signature.to_json_dict() == {
        "format": 1,
        "protocol": "rcc",
        "invariants": ["liveness"],
        "stragglers": [1],
    }


UNVERSIONED = SloSpec(p99_ceiling=0.05, mode="expect-recovery")
VERSIONED = FailureSignature(protocol="pbft", invariants=("liveness-straggler",), stragglers=(3,))


@pytest.mark.parametrize(
    "record, defaulted",
    [(UNVERSIONED, "require_breach"), (VERSIONED, "stragglers"), (fuzz_spec(1, 3), "slo")],
)
def test_decode_defaults_a_missing_field_and_rejects_unknown_keys(record, defaulted):
    data = record.to_json_dict()
    data.pop(defaulted)
    restored = type(record).from_json_dict(data)
    default = type(record).__dataclass_fields__[defaulted].default
    assert getattr(restored, defaulted) == default
    with pytest.raises(ValueError, match="unknown"):
        type(record).from_json_dict(dict(record.to_json_dict(), surplus=1))


@pytest.mark.parametrize("record", [UNVERSIONED, VERSIONED, fuzz_spec(1, 3)])
def test_decode_rejects_another_format(record):
    with pytest.raises(ValueError):
        type(record).from_json_dict(dict(record.to_json_dict(), format=99))


def test_decode_runs_the_constructor_checks():
    data = VERSIONED.to_json_dict()
    data["invariants"] = []
    with pytest.raises(ValueError):
        FailureSignature.from_json_dict(data)
    with pytest.raises(KeyError):
        FailureSignature.from_json_dict({"invariants": ["liveness"]})


@pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda path: path.name)
def test_every_committed_fuzz_archive_decodes(path):
    data = json.loads(path.read_text())
    spec = ScenarioSpec.from_json_dict(data["spec"])
    assert spec.name == path.stem
    # Archived before `load` and `slo` existed: the tolerant read defaults them.
    assert spec.load is None and spec.slo is None
    assert all(InvariantViolation.from_json_dict(item).invariant for item in data["violations"])


#: The corpus deduplicates findings on ``FailureSignature.key()``, so a
#: change to the signature's JSON form would silently un-pin these entries.
CORPUS_KEYS = {"fuzz-1-42-min": "8b1a2bfb9667", "fuzz-1-44-min": "0ea5f1d01bfd"}


@pytest.mark.parametrize("name", sorted(CORPUS_KEYS))
def test_committed_corpus_entries_decode_with_their_pinned_signature_key(name):
    text = (ARCHIVES / "corpus" / f"{name}.json").read_text()
    entry = CorpusEntry.from_json_dict(json.loads(text))
    assert entry.name == name
    assert entry.signature.key() == CORPUS_KEYS[name]
    assert _round_trip(entry) == entry
