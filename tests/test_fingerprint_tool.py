"""``tools/fingerprint.py compare``: exit 0 on equal records, 1 on any difference."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"

CELL = {
    "protocol": "rcc",
    "events": 10,
    "messages": 8,
    "bytes": 800,
    "dropped": 0,
    "rewritten": 0,
    "confirmed": 3,
    "summary": "abc",
    "violations": [],
    "stragglers": [],
    "counters": [{"view_changes": 0}],
    "state": ["00"],
    "json": "0123456789abcdef",
}

EXAMPLE = {"protocol": "example", "exit": 0, "stdout": "0123456789abcdef"}


def _compare(tmp_path, first, second):
    paths = []
    for name, cells in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(json.dumps({"format": 4, "cells": cells}))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(TOOL), "compare", *paths], capture_output=True, text=True, check=False
    )


def test_compare_exits_zero_when_records_agree(tmp_path):
    done = _compare(tmp_path, {"cell": CELL}, {"cell": dict(CELL)})
    assert done.returncode == 0, done.stdout
    assert "1 cells, 0 differ" in done.stdout


def test_compare_exits_one_and_names_the_field_on_any_difference(tmp_path):
    moved = dict(CELL, events=11, counters=[{"view_changes": 1}])
    done = _compare(tmp_path, {"cell": CELL}, {"cell": moved})
    assert done.returncode == 1
    assert "[rcc] 1 differing cell(s)" in done.stdout
    assert "events 10 -> 11" in done.stdout and "counters" in done.stdout
    assert _compare(tmp_path, {"cell": CELL}, {}).returncode == 1


def test_compare_names_a_differing_example_by_its_script(tmp_path):
    cells = {"cell": CELL, "example:quickstart.py": EXAMPLE}
    same = _compare(tmp_path, cells, {"cell": dict(CELL), "example:quickstart.py": dict(EXAMPLE)})
    assert same.returncode == 0 and "2 cells, 0 differ" in same.stdout
    moved = dict(EXAMPLE, stdout="fedcba9876543210")
    done = _compare(tmp_path, cells, {"cell": CELL, "example:quickstart.py": moved})
    assert done.returncode == 1
    assert "[example] 1 differing cell(s)" in done.stdout
    assert "example:quickstart.py: stdout" in done.stdout
    failed = _compare(tmp_path, cells, {"cell": CELL, "example:quickstart.py": dict(EXAMPLE, exit=1)})
    assert "example:quickstart.py: exit 0 -> 1" in failed.stdout


def test_compare_ends_with_each_protocols_cells_counted_by_field_set(tmp_path):
    state = dict(CELL, state=["01"])
    both = dict(CELL, state=["01"], events=11)
    spotless = dict(CELL, protocol="spotless")
    first = {"r1": CELL, "r2": CELL, "r3": CELL, "r4": CELL, "s1": spotless, "example:quickstart.py": EXAMPLE}
    second = {
        "r1": state,
        "r2": state,
        "r3": both,
        "r4": CELL,
        "s2": spotless,
        "example:quickstart.py": dict(EXAMPLE, stdout="fedcba9876543210"),
    }
    done = _compare(tmp_path, first, second)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-4:] == [
        "7 cells, 6 differ",
        "example: 1 × {stdout}",
        "rcc: 2 × {state}, 1 × {events, state}",
        "spotless: 2 × {only in one record}",
    ]
