"""``PROTOCOL_CAPACITY`` against the probe it is measured with, and the figure built on it."""

import pytest

from repro.bench.experiments import estimate_capacity, offered_load
from repro.scenarios.spec import PROTOCOL_CAPACITY


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_CAPACITY))
def test_capacity_table_matches_the_probe(protocol):
    """Every overload anchor is within 15 % of what ``estimate_capacity`` measures now.

    A failure means the protocol's saturation point moved: set the entry in
    ``scenarios/spec.py`` to the measured value.
    """
    measured = estimate_capacity(protocol)
    assert measured == pytest.approx(PROTOCOL_CAPACITY[protocol], rel=0.15)


def test_offered_load_breaches_at_the_spike_and_recovers():
    """Anchored to the table, the schedule saturates each protocol and lets it drain."""
    rows = offered_load(protocols=("spotless", "hotstuff"))
    for protocol in ("spotless", "hotstuff"):
        verdicts = [row["slo"] for row in rows if row["protocol"] == protocol]
        assert verdicts[:3] == ["ok", "ok", "breach"]
        assert verdicts[-1] == "ok"
