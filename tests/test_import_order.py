"""Every ``repro.*`` package must import first in a fresh interpreter.

A package that only loads after some other package hides an import cycle:
``import repro.runtime`` used to fail unless ``repro.core`` had been imported
before it, because the shared runtime reached into ``repro.core.messages``.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(path.parent.name for path in (SRC / "repro").glob("*/__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_a_clean_interpreter(package):
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
