"""Analytical models and reporting.

* :mod:`repro.analysis.complexity` — the protocol comparison of Figure 1
  (phases, message complexity, per-decision amortised cost).
* :mod:`repro.analysis.model` — the analytical performance model used to
  regenerate the large-scale (n = 128) throughput/latency figures.  The model
  combines the four bottlenecks that govern the evaluation: per-replica NIC
  bandwidth, per-replica message-processing/crypto CPU, the sequential
  execution ceiling, and the message-delay critical path of non-pipelined
  protocols.
* :mod:`repro.analysis.report` — small helpers for formatting experiment
  results as the tables/series the paper reports.
"""

from repro.analysis.complexity import ComplexityRow, complexity_table, format_complexity_table
from repro.analysis.model import (
    PerformanceModel,
    PredictedPerformance,
    ResourceProfile,
    Scenario,
)
from repro.analysis.report import format_table

__all__ = [
    "ComplexityRow",
    "PerformanceModel",
    "PredictedPerformance",
    "ResourceProfile",
    "Scenario",
    "complexity_table",
    "format_complexity_table",
    "format_table",
]
