"""Cross-validation of the analytical model against the message-level simulator.

The large-scale figures (n = 128) are regenerated from the analytical model
in :mod:`repro.analysis.model` because a pure-Python message-level simulation
of 128 replicas for 120 seconds is not feasible.  This module checks that the
model and the simulator agree where both can run — small deployments — on the
aspects that matter for the paper's conclusions:

* the *ordering* of protocols by throughput,
* the *direction* of parameter effects (more failures → less throughput,
  larger batches → more throughput per consensus decision).

`EXPERIMENTS.md` cites these checks as the evidence that using the model for
the n = 128 operating points does not change who wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.model import PerformanceModel, Scenario
from repro.bench.cluster import SimulatedCluster


@dataclass(frozen=True)
class ValidationPoint:
    """Model and simulator throughput for one protocol at one operating point."""

    protocol: str
    num_replicas: int
    simulated_throughput: float
    predicted_throughput: float

    def as_row(self) -> Dict[str, object]:
        """Row form for :func:`repro.analysis.report.format_table`."""
        return {
            "protocol": self.protocol,
            "replicas": self.num_replicas,
            "simulated_txn_s": round(self.simulated_throughput, 1),
            "model_txn_s": round(self.predicted_throughput, 1),
        }


def _rank(values: Dict[str, float]) -> List[str]:
    """Protocol names ordered from highest to lowest value."""
    return [name for name, _ in sorted(values.items(), key=lambda item: item[1], reverse=True)]


def rank_agreement(first: Dict[str, float], second: Dict[str, float]) -> float:
    """Fraction of protocol pairs ordered the same way by both measurements.

    1.0 means the two measurements produce the same ranking; 0.5 is what two
    unrelated rankings would score on average.  (A pairwise count rather than
    a rank-correlation coefficient because the sets are tiny.)
    """
    names = sorted(set(first) & set(second))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if not pairs:
        return 1.0
    agreeing = 0
    for a, b in pairs:
        same_order = (first[a] - first[b]) * (second[a] - second[b]) >= 0
        agreeing += 1 if same_order else 0
    return agreeing / len(pairs)


def cross_validate_protocols(
    protocols: Sequence[str] = ("spotless", "rcc", "pbft", "hotstuff"),
    num_replicas: int = 4,
    duration: float = 1.0,
    batch_size: int = 10,
    clients: int = 4,
    outstanding_per_client: int = 8,
) -> List[ValidationPoint]:
    """Run each protocol in the simulator and the model at the same point.

    The simulated deployment is deliberately small (the default n = 4 with a
    short run) so the comparison stays fast enough for the test suite; the
    model is evaluated at the same n and batch size.
    """
    model = PerformanceModel()
    points: List[ValidationPoint] = []
    for protocol in protocols:
        cluster = SimulatedCluster.for_protocol(
            protocol,
            num_replicas=num_replicas,
            batch_size=batch_size,
            clients=clients,
            outstanding_per_client=outstanding_per_client,
        )
        result = cluster.run(duration=duration)
        predicted = model.predict(
            Scenario(protocol=protocol, num_replicas=num_replicas, batch_size=batch_size)
        ).throughput
        points.append(
            ValidationPoint(
                protocol=protocol,
                num_replicas=num_replicas,
                simulated_throughput=result.throughput,
                predicted_throughput=predicted,
            )
        )
    return points


def validation_report(points: Sequence[ValidationPoint]) -> Dict[str, object]:
    """Summary of a cross-validation run.

    Returns the two rankings and the pairwise rank agreement between the
    simulator and the model.
    """
    simulated = {point.protocol: point.simulated_throughput for point in points}
    predicted = {point.protocol: point.predicted_throughput for point in points}
    return {
        "simulated_ranking": _rank(simulated),
        "model_ranking": _rank(predicted),
        "rank_agreement": rank_agreement(simulated, predicted),
        "rows": [point.as_row() for point in points],
    }


def failure_direction_check(
    num_replicas: int = 4,
    duration: float = 1.0,
    faulty: int = 1,
) -> Dict[str, object]:
    """Check that failures reduce throughput in both the simulator and the model."""
    from repro.faults.injector import FaultEvent, FaultInjector
    from repro.core.config import SpotLessConfig

    model = PerformanceModel()
    healthy_cluster = SimulatedCluster.spotless(
        SpotLessConfig(num_replicas=num_replicas, batch_size=10), clients=4, outstanding_per_client=8
    )
    healthy = healthy_cluster.run(duration=duration).throughput

    faulty_cluster = SimulatedCluster.spotless(
        SpotLessConfig(num_replicas=num_replicas, batch_size=10), clients=4, outstanding_per_client=8
    )
    injector = FaultInjector(faulty_cluster)
    injector.schedule(FaultEvent("crash", 0.0, replicas=tuple(range(num_replicas - faulty, num_replicas))))
    degraded = faulty_cluster.run(duration=duration).throughput

    model_healthy = model.predict(Scenario(protocol="spotless", num_replicas=num_replicas, batch_size=10))
    model_degraded = model.predict(
        Scenario(protocol="spotless", num_replicas=num_replicas, batch_size=10, faulty_replicas=faulty)
    )
    return {
        "simulated_healthy": healthy,
        "simulated_degraded": degraded,
        "model_healthy": model_healthy.throughput,
        "model_degraded": model_degraded.throughput,
        "simulator_direction_ok": degraded <= healthy,
        "model_direction_ok": model_degraded.throughput <= model_healthy.throughput,
    }


__all__ = [
    "ValidationPoint",
    "cross_validate_protocols",
    "failure_direction_check",
    "rank_agreement",
    "validation_report",
]
