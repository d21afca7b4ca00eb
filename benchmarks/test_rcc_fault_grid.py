"""RCC under every fault kind: clean, live, and no correct primary deposed.

rcc x the seven fault kinds x f in {1, 2} x seeds 1-3 (42 cells, 0.4 s
each).  A primary proposes a no-op only when a round needs one and each
instance's progress deadline counts only what that instance owes, so a
fault may move only the instances its faulty replicas lead: crash, A1 and
partition isolate them; A2-A4 attackers keep proposing; latency faults
nobody.
"""

import pytest

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import FAULT_KINDS, single_fault_spec

CELLS = [(fault, f, seed) for fault in FAULT_KINDS for f in (1, 2) for seed in (1, 2, 3)]


@pytest.mark.parametrize("fault,f,seed", CELLS)
def test_rcc_fault_cell_is_clean_and_deposes_only_faulty_primaries(fault, f, seed):
    spec = single_fault_spec("rcc", fault, f=f, duration=0.4, seed=seed)
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert result.violations == ()
    assert result.stragglers == ()
    assert result.confirmed_transactions > 0
    faulty = {replica for event in spec.events for replica in event.replicas}
    if fault == "partition":
        faulty = set(spec.events[0].groups[1])
    # Instance i starts under primary i, so a correct primary's instance
    # never changes view at any replica.
    for replica in runner.cluster.replicas:
        for instance, view in replica.instance_views().items():
            if instance not in faulty:
                assert view == 0, (spec.name, replica.node_id, instance, view)
