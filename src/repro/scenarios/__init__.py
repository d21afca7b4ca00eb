"""Scenario-matrix chaos harness with an always-on invariant oracle.

Declarative fault scripts (:mod:`repro.scenarios.spec`) drive any of the
implemented protocol stacks through crashes, partitions, latency windows and
the paper's A1-A4 Byzantine attacks (:mod:`repro.scenarios.runner`), while
an :class:`~repro.scenarios.oracle.InvariantOracle` continuously checks the
safety and liveness guarantees every run must keep.
"""

from repro.scenarios.oracle import (
    InvariantOracle,
    InvariantViolation,
    ProgressSample,
    SLO_MODES,
    SloBreach,
    SloSpec,
    canonical_violation_kinds,
)
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioRunner,
    format_matrix,
    run_scenario,
)
from repro.scenarios.spec import (
    ATTACK_KINDS,
    FAULT_KINDS,
    PROTOCOLS,
    SPEC_FORMAT,
    FaultEvent,
    ScenarioSpec,
    drop_event,
    overload_spec,
    replace_event,
    scenario_matrix,
    single_fault_spec,
    smoke_matrix,
    try_spec,
)

__all__ = [
    "ATTACK_KINDS",
    "FAULT_KINDS",
    "PROTOCOLS",
    "SLO_MODES",
    "SPEC_FORMAT",
    "FaultEvent",
    "InvariantOracle",
    "InvariantViolation",
    "ProgressSample",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SloBreach",
    "SloSpec",
    "canonical_violation_kinds",
    "drop_event",
    "format_matrix",
    "overload_spec",
    "replace_event",
    "run_scenario",
    "scenario_matrix",
    "single_fault_spec",
    "smoke_matrix",
    "try_spec",
]
