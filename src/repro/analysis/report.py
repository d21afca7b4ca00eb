"""Formatting helpers for experiment output.

Every experiment in :mod:`repro.bench.experiments` produces rows (one per
operating point) that these helpers render as the aligned tables and series
the benchmark harness prints, so a reader can compare them directly against
the corresponding figure in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Union

Number = Union[int, float]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render ``rows`` as an aligned text table with the given column order."""
    if not rows:
        return "(no data)"
    rendered: List[List[str]] = [[str(column) for column in columns]]
    for row in rows:
        rendered.append([_format_value(row.get(column, "")) for column in columns])
    widths = [max(len(line[index]) for line in rendered) for index in range(len(columns))]
    lines = []
    for line_index, line in enumerate(rendered):
        lines.append("  ".join(value.ljust(widths[index]) for index, value in enumerate(line)))
        if line_index == 0:
            lines.append("  ".join("-" * widths[index] for index in range(len(columns))))
    return "\n".join(lines)


def relative_change(baseline: Number, value: Number) -> float:
    """Percentage change of ``value`` over ``baseline`` (positive = faster)."""
    if baseline == 0:
        return float("inf")
    return (value - baseline) / baseline * 100.0


__all__ = ["format_table", "relative_change"]
