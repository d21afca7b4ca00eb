"""``tools/unreached.py``: the write-only state check, on a small tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"

SOURCE = '''\
class Counter:
    def __init__(self):
        self.read_here = 0
        self.read_by_a_test = 0
        self.read_by_name = 0
        self.only_bumped = 0

    def bump(self):
        self.only_bumped += 1
        return self.read_here
'''


def _tool(monkeypatch, root: Path):
    spec = importlib.util.spec_from_file_location("unreached_under_test", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "ROOT", root)
    monkeypatch.setattr(tool, "SOURCE", root / "src" / "repro")
    return tool


def test_a_store_no_file_reads_is_write_only(monkeypatch, tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "counter.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_counter.py").write_text("def test(c):\n    assert c.read_by_a_test == 0\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "report.py").write_text('FIELDS = ("read_by_name",)\n')
    tool = _tool(monkeypatch, tmp_path)
    assert tool.write_only() == [
        "src/repro/counter.py:6 self.only_bumped",
        "src/repro/counter.py:9 self.only_bumped",
    ]
    # A store outside src/repro is no one's state to check.
    (tmp_path / "tools" / "report.py").write_text('FIELDS = ("read_by_name",)\nclass T:\n    def f(self):\n        self.x = 1\n')
    assert len(tool.write_only()) == 2
