"""Canonical failure signatures for scenario runs.

A raw fuzz finding carries timestamps, slot numbers and per-run phrasing
that change under every mutation of the spec, so "is this the same bug?"
cannot be asked of the violation list directly.  A
:class:`FailureSignature` is the stable projection the triage layer
compares instead: the protocol under test, the sorted set of broken
invariant *kinds* (via :func:`repro.scenarios.oracle.canonical_violation_kinds`)
and the sorted set of post-heal straggler replicas.  Two runs with equal
signatures exhibit the same failure mode; a minimization step is kept only
when it preserves the signature, and the regression corpus deduplicates
findings by it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.codec import JsonRecord
from repro.scenarios.oracle import canonical_violation_kinds
from repro.scenarios.runner import ScenarioResult

#: Schema version stamped into serialized signatures; bump on change.
SIGNATURE_FORMAT = 1


@dataclass(frozen=True)
class FailureSignature(JsonRecord):
    """The canonical identity of one failure mode.

    ``invariants`` are the sorted distinct invariant kinds that fired
    (e.g. ``("liveness", "liveness-straggler")``), ``stragglers`` the
    sorted replica ids that made no post-heal progress.  Timestamps,
    violation counts and detail strings are deliberately excluded: they
    vary with window placement while the failure mode does not.
    """

    JSON_FORMAT = SIGNATURE_FORMAT

    protocol: str
    invariants: Tuple[str, ...]
    stragglers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.invariants:
            raise ValueError("a failure signature needs at least one violated invariant")

    def key(self) -> str:
        """Short stable content digest — corpus dedup key and table label."""
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def label(self) -> str:
        """Compact human-readable description for tables and log lines."""
        stragglers = ",".join(map(str, self.stragglers)) or "-"
        return f"{self.protocol}:{'+'.join(self.invariants)}[{stragglers}]"


def signature_of(result: ScenarioResult) -> Optional[FailureSignature]:
    """The failure signature of a scenario run, or None for a clean run."""
    if not result.violations:
        return None
    return FailureSignature(
        protocol=result.spec.protocol,
        invariants=canonical_violation_kinds(result.violations),
        stragglers=tuple(sorted(result.stragglers)),
    )


def signature_summary(result: ScenarioResult) -> Dict[str, Any]:
    """The campaign ledger's per-cell outcome summary for a scenario run.

    This is what ``cell-done`` records carry and what the campaign manifest
    reduces: the headline numbers, the digest-excluded liveness counters,
    and — for violating runs — the serialized :class:`FailureSignature` so
    ``repro campaign report`` can group a campaign's findings by failure
    mode without re-running any cell.
    """
    summary: Dict[str, Any] = {
        "scenario": result.spec.name,
        "protocol": result.spec.protocol,
        "seed": result.spec.seed,
        "confirmed": result.confirmed_transactions,
        "executed": result.executed_transactions,
        "violations": len(result.violations),
        "digest": result.summary_digest(),
        "counters": dict(result.counters),
    }
    signature = signature_of(result)
    if signature is not None:
        summary["signature"] = signature.to_json_dict()
        summary["signature_key"] = signature.key()
        summary["signature_label"] = signature.label()
    if result.stragglers:
        summary["stragglers"] = list(result.stragglers)
    return summary


__all__ = ["SIGNATURE_FORMAT", "FailureSignature", "signature_of", "signature_summary"]
