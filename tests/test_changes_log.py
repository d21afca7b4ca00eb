"""CHANGES.md stays readable: every ``- PR N:`` entry fits a byte cap.

An entry says what a change did and where its numbers live; the numbers
themselves belong in EXPERIMENTS.md, so a long entry is one to trim.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
ENTRY_CAP_BYTES = 1536


def _entries(text):
    """Each ``- PR N:`` entry, up to the next one or the end of the file."""
    starts = [match.start() for match in re.finditer(r"^- PR \d+:", text, re.MULTILINE)]
    return [text[start:end].strip() for start, end in zip(starts, starts[1:] + [len(text)])]


def test_every_changes_entry_fits_the_cap():
    entries = _entries(CHANGES.read_text(encoding="utf-8"))
    assert entries
    over = {
        entry.split(":", 1)[0]: len(entry.encode("utf-8"))
        for entry in entries
        if len(entry.encode("utf-8")) > ENTRY_CAP_BYTES
    }
    assert not over, f"entries over {ENTRY_CAP_BYTES} bytes: {over}"
