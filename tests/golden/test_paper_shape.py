"""The paper's Table 5 shape on the golden small campaign.

§5.2: every interest persona draws higher bids than the vanilla
control, in median and in mean.  This reads the ``summary.json`` of the
``small-seed42`` golden run instead of running the campaign again.

The Table 7 split (which personas are *significantly* above vanilla)
is not asserted here: at seed 42 the small roster has no significant
persona (every p >= 0.146), so that check lives in
``benchmarks/bench_table7_significance.py`` at paper scale.
"""

import json

import pytest

from repro.core.personas import interest_personas

INTEREST = [persona.name for persona in interest_personas()]


@pytest.fixture(scope="module")
def bid_summaries(golden_run):
    out, _ = golden_run("small-seed42")
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))["bid_summaries"]


@pytest.mark.parametrize("statistic", ["median", "mean"])
@pytest.mark.parametrize("persona", INTEREST)
def test_interest_persona_bids_exceed_vanilla(bid_summaries, persona, statistic):
    assert bid_summaries[persona][statistic] > bid_summaries["vanilla"][statistic]
