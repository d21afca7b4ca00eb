"""Fixtures shared by the CLI-level tests."""

import dataclasses

import pytest

from repro.dispatch import get_task, register_task
from repro.scenarios import InvariantViolation, ScenarioResult


@pytest.fixture
def first_run_violates():
    """Register a fake ``scenario`` dispatch task for the test's duration.

    The first run of each spec skips the simulator and reports a forced
    ``agreement`` violation; any later run of the same spec is the real
    task — a finding that does not reproduce.  The CLI reaches the fake the
    way it reaches the real one, through ``Dispatcher.run("scenario", ...)``.
    """
    real = get_task("scenario")
    seen = set()

    def run(payload):
        spec = payload["spec"] if isinstance(payload, dict) else payload
        if spec.name in seen:
            return real.run(payload)
        seen.add(spec.name)
        return ScenarioResult(
            spec=spec,
            confirmed_transactions=0,
            executed_transactions=0,
            committed_per_replica=(0,) * spec.resolved_replicas(),
            violations=(InvariantViolation(invariant="agreement", time=0.1, detail="forced"),),
            checks_run=1,
        )

    register_task(dataclasses.replace(real, run=run))
    yield
    register_task(real)
