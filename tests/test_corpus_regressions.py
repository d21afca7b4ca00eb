"""In-process replays of the promoted regression corpus.

The two seed corpus entries were the repo's top open liveness bugs: minimized
fuzz findings where A2-style partial withholding wedged replicas forever.
Both are fixed and promoted to must-stay-clean regressions; these tests
replay the pinned specs verbatim (strict liveness on) and additionally
assert that the *fix mechanisms* visibly engaged — the liveness counters
prove the scenario still exercises the machinery rather than having drifted
into an easier schedule.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

CORPUS = Path(__file__).resolve().parent.parent / "fuzz-failures" / "corpus"


def _replay(name):
    data = json.loads((CORPUS / f"{name}.json").read_text())
    assert data["expected"] == "passing", f"{name} should be a promoted regression"
    spec = ScenarioSpec.from_json_dict(data["spec"])
    assert spec.strict_liveness
    return run_scenario(spec)


def test_fuzz_1_42_min_rcc_drip_feed_stays_clean():
    """Chained A2 windows against RCC: every replica must keep committing.

    Root cause was the progress timer being cancelled on any PrePrepare, so
    the withholding primaries never triggered a view change.  The deadline
    must now fire and replace them.
    """
    result = _replay("fuzz-1-42-min")
    assert result.violations == ()
    assert result.stragglers == ()
    assert result.counters["progress_timeout_fires"] > 0
    assert result.counters["view_changes"] > 0


def test_fuzz_1_44_min_narwhal_post_heal_catchup_stays_clean():
    """Healed partition + A2 against Narwhal-HS: no permanent stragglers.

    Root cause was chain sync only asking the revealing peer with no retry,
    plus no way to pull transaction payloads missed during the partition;
    the synced chain nodes now carry their transactions, so the QC-gap
    request alone catches the healed replicas up.
    """
    result = _replay("fuzz-1-44-min")
    assert result.violations == ()
    assert result.stragglers == ()
    assert result.counters["chain_syncs_requested"] > 0


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.json")))
def test_every_corpus_entry_is_a_passing_regression(name):
    """The corpus no longer carries 'expected' open bugs."""
    data = json.loads((CORPUS / f"{name}.json").read_text())
    assert data["expected"] == "passing", (
        f"corpus entry {name!r} is {data['expected']!r}; fix the bug and promote it "
        f"(CI runs `repro triage corpus --require-clean`)"
    )
