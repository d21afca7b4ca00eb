"""The CI-enforced regression corpus of minimized failure specs.

Every triaged fuzz finding becomes one JSON file under the corpus
directory (default ``fuzz-failures/corpus/``): the minimized
:class:`~repro.scenarios.spec.ScenarioSpec` plus the
:class:`~repro.triage.signature.FailureSignature` it is expected to
reproduce.  New findings are deduplicated by signature, so ten fuzz cells
that tickle the same bug pin one corpus entry, not ten.

Replaying the corpus classifies every entry:

* ``still-failing`` — an open-bug entry reproduced its expected signature:
  the bug is still there, unchanged.  Expected; CI passes.
* ``fixed`` — an open-bug entry ran clean: somebody fixed the bug.  CI
  passes with a prompt to promote the entry to a passing regression.
* ``signature-changed`` — the entry failed with a *different* signature:
  the failure mode drifted (a new bug, or a partial fix that moved the
  breakage).  Hard error; CI fails.
* ``passing`` — a promoted regression entry ran clean, as it must.
* ``regressed`` — a promoted regression entry failed again.  Hard error.

Replays fan out through the dispatch layer like any other grid, so an
unchanged corpus under unchanged code re-serves from the result cache.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.codec import JsonRecord
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.spec import ScenarioSpec
from repro.triage.signature import FailureSignature, signature_of

#: Schema version stamped into corpus entry files; bump on change.
CORPUS_FORMAT = 1

#: Where `repro fuzz` / `repro triage` keep the corpus by default.
DEFAULT_CORPUS_DIR = Path("fuzz-failures") / "corpus"

#: What an entry is expected to do on replay.
EXPECT_FAILING = "still-failing"  # open bug: must reproduce its signature
EXPECT_PASSING = "passing"  # promoted regression: must stay clean
EXPECTATIONS = (EXPECT_FAILING, EXPECT_PASSING)


@dataclass(frozen=True)
class CorpusEntry(JsonRecord):
    """One pinned failure: a minimized spec and its expected signature."""

    JSON_FORMAT = CORPUS_FORMAT

    name: str
    expected: str
    spec: ScenarioSpec
    signature: FailureSignature
    source: str = ""

    def __post_init__(self) -> None:
        if self.expected not in EXPECTATIONS:
            raise ValueError(
                f"unknown expectation {self.expected!r}; choose one of {EXPECTATIONS}"
            )
        if not self.name:
            raise ValueError("corpus entries need a name")


class Corpus:
    """Directory-backed store of :class:`CorpusEntry` files."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CORPUS_DIR

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def entries(self) -> List[CorpusEntry]:
        """Every entry, sorted by name.  A corrupt file is a hard error:
        silently skipping one would un-pin a known bug."""
        if not self.root.is_dir():
            return []
        entries = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entries.append(CorpusEntry.from_json_dict(json.load(handle)))
            except (ValueError, KeyError, TypeError) as error:
                raise ValueError(f"corrupt corpus entry {path}: {error}") from error
        return entries

    def find_by_signature(
        self,
        signature: FailureSignature,
        entries: Optional[Sequence[CorpusEntry]] = None,
    ) -> Optional[CorpusEntry]:
        """The *open-bug* entry pinning ``signature``, if any (corpus dedup).

        Promoted (expected-passing) entries deliberately don't count: a new
        finding that reproduces a fixed bug's signature is a recurrence,
        not a duplicate, and must be pinned again as still-failing.

        Signatures deliberately project away the fault script (otherwise
        the minimizer could never drop a window), so two *unrelated* bugs
        with identical invariant kinds and straggler sets would dedup to
        one entry; the raw archives under ``fuzz-failures/`` keep every
        distinct finding either way.

        ``entries`` skips the directory re-read when the caller already
        loaded them.
        """
        for entry in self.entries() if entries is None else entries:
            if entry.expected == EXPECT_FAILING and entry.signature == signature:
                return entry
        return None

    def add(self, entry: CorpusEntry) -> Path:
        """Write ``entry`` to its file (atomic; overwrites same-name entry)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(entry.name)
        descriptor, temp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(entry.to_json_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    def ingest(
        self, spec: ScenarioSpec, signature: FailureSignature, source: str = ""
    ) -> Tuple[CorpusEntry, bool]:
        """Add a minimized finding; dedup by signature against open bugs.

        Returns ``(entry, created)``: the existing still-failing entry and
        False when the signature is already pinned as an open bug, else the
        freshly written entry and True.  A signature matching only a
        *promoted* entry is a recurrence of a fixed bug and is pinned
        again.  A name collision gets the signature key appended, so
        distinct entries never overwrite each other.
        """
        existing = self.find_by_signature(signature)
        if existing is not None:
            return existing, False
        name = spec.name
        if self.path_for(name).exists():
            # Probe until free: a twice-recurring promoted signature would
            # otherwise land on the same `<name>-<sigkey>` and overwrite
            # the promoted must-stay-clean entry.
            base = f"{name}-{signature.key()}"
            name = base
            suffix = 2
            while self.path_for(name).exists():
                name = f"{base}-{suffix}"
                suffix += 1
        entry = CorpusEntry(
            name=name, expected=EXPECT_FAILING, spec=spec, signature=signature, source=source
        )
        self.add(entry)
        return entry, True

    def promote(self, name: str) -> CorpusEntry:
        """Flip an entry to a passing regression (its bug was fixed)."""
        entries = self.entries()
        for entry in entries:
            if entry.name == name:
                promoted = replace(entry, expected=EXPECT_PASSING)
                self.add(promoted)
                return promoted
        known = ", ".join(entry.name for entry in entries) or "(empty corpus)"
        raise KeyError(f"no corpus entry named {name!r}; known: {known}")


# ----------------------------------------------------------------------
# replay and classification
# ----------------------------------------------------------------------

#: Replay statuses that must fail CI.
HARD_FAILURES = ("signature-changed", "regressed")


@dataclass(frozen=True)
class ReplayOutcome:
    """One corpus entry's replay classification."""

    entry: CorpusEntry
    result: ScenarioResult
    status: str

    @property
    def ok(self) -> bool:
        """False exactly for the statuses that must fail CI."""
        return self.status not in HARD_FAILURES

    def row(self) -> Dict[str, object]:
        observed = signature_of(self.result)
        return {
            "entry": self.entry.name,
            "protocol": self.entry.spec.protocol,
            "fault": self.entry.spec.fault_label(),
            "expected": self.entry.expected,
            "status": self.status,
            "signature": self.entry.signature.key(),
            "observed": observed.key() if observed else "clean",
        }


def classify(entry: CorpusEntry, result: ScenarioResult) -> str:
    """Classify one replay against the entry's expectation."""
    observed = signature_of(result)
    if entry.expected == EXPECT_PASSING:
        return "passing" if observed is None else "regressed"
    if observed is None:
        return "fixed"
    if observed == entry.signature:
        return "still-failing"
    return "signature-changed"


def replay_corpus(
    corpus: Corpus,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    entries: Optional[Sequence[CorpusEntry]] = None,
) -> List[ReplayOutcome]:
    """Re-run every corpus entry and classify the outcomes (entry order).

    Pass ``entries`` when the caller already loaded them (the CLI does, to
    report corrupt files cleanly) — the corpus is not re-read in that case.
    """
    if entries is None:
        entries = corpus.entries()
    if not entries:
        return []
    from repro.dispatch import Dispatcher

    dispatcher = Dispatcher(workers=workers, cache=cache)
    results = dispatcher.run("scenario", [entry.spec for entry in entries])
    return [
        ReplayOutcome(entry=entry, result=result, status=classify(entry, result))
        for entry, result in zip(entries, results)
    ]


CORPUS_COLUMNS = ["entry", "protocol", "fault", "expected", "status", "signature", "observed"]


def format_corpus(outcomes: Sequence[ReplayOutcome]) -> str:
    """The aligned summary table for a corpus replay."""
    return format_table([outcome.row() for outcome in outcomes], CORPUS_COLUMNS)


__all__ = [
    "CORPUS_COLUMNS",
    "CORPUS_FORMAT",
    "Corpus",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "EXPECTATIONS",
    "EXPECT_FAILING",
    "EXPECT_PASSING",
    "HARD_FAILURES",
    "ReplayOutcome",
    "classify",
    "format_corpus",
    "replay_corpus",
]
