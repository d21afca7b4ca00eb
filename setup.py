"""Legacy setup shim.

The environment used for the reproduction has no network access and no
``wheel`` package, so ``pip install -e . --no-build-isolation --no-use-pep517``
falls back to this classic ``setup.py develop`` path.  No metadata is declared
(there is no ``pyproject.toml`` or ``setup.cfg``) and no console script is
installed: run the CLI as ``PYTHONPATH=src python -m repro``.
"""

from setuptools import setup

setup()
