"""Unit tests for persona sharding and shard-result merging."""

import pytest

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.parallel import (
    BACKENDS,
    ShardResult,
    merge_shard_results,
    shard_personas,
)
from repro.core.personas import all_personas
from repro.util.rng import Seed


class TestShardPersonas:
    def test_partition_covers_roster_in_order(self):
        roster = all_personas()
        shards = shard_personas(roster, 4)
        flattened = [p for shard in shards for p in shard]
        assert flattened == roster

    def test_contiguous_and_balanced(self):
        roster = all_personas()
        shards = shard_personas(roster, 4)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == len(roster)
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes  # larger shards first

    def test_more_shards_than_personas_collapses(self):
        roster = all_personas()
        shards = shard_personas(roster, len(roster) + 5)
        assert len(shards) == len(roster)
        assert all(len(s) == 1 for s in shards)

    def test_single_shard_is_whole_roster(self):
        roster = all_personas()
        assert shard_personas(roster, 1) == [roster]

    def test_deterministic(self):
        assert shard_personas(all_personas(), 3) == shard_personas(
            all_personas(), 3
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_personas(all_personas(), 0)
        with pytest.raises(ValueError):
            shard_personas([], 2)


def _result(index, names, prebid=("site-a",), crawl=("site-a",)):
    return ShardResult(
        shard_index=index,
        persona_names=list(names),
        personas={name: object() for name in names},
        prebid_sites=list(prebid),
        crawl_sites=list(crawl),
        policy_fetches=[f"fetch-{index}"],
        timings={"total": 1.0},
    )


class TestMergeShardResults:
    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            merge_shard_results(Seed(1), [])

    def test_duplicate_shard_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate shard indices"):
            merge_shard_results(Seed(1), [_result(0, ["a"]), _result(0, ["b"])])

    def test_duplicate_persona_rejected(self):
        with pytest.raises(ValueError, match="two shards"):
            merge_shard_results(Seed(1), [_result(0, ["a"]), _result(1, ["a"])])

    def test_site_disagreement_rejected(self):
        with pytest.raises(RuntimeError, match="disagree"):
            merge_shard_results(
                Seed(1),
                [_result(0, ["a"]), _result(1, ["b"], prebid=("site-b",))],
            )

    def test_merge_orders_personas_canonically(self):
        roster = all_personas()
        # Submit shard results out of completion order.
        shards = shard_personas(roster, 3)
        results = [
            _result(i, [p.name for p in shard]) for i, shard in enumerate(shards)
        ]
        merged = merge_shard_results(Seed(1), list(reversed(results)))
        assert list(merged.personas) == [p.name for p in roster]
        assert merged.policy_fetches == ["fetch-0", "fetch-1", "fetch-2"]
        assert merged.world is not None

    def test_shard_timings_are_namespaced(self):
        merged = merge_shard_results(
            Seed(1), [_result(0, ["a"])], expected_personas=["a"]
        )
        assert merged.timings["shard0.total"] == 1.0


class TestMergeCompleteness:
    def test_missing_personas_rejected_by_default(self):
        with pytest.raises(ValueError, match="missing personas"):
            merge_shard_results(
                Seed(1), [_result(0, ["a"])], expected_personas=["a", "b"]
            )

    def test_default_expectation_is_the_full_roster(self):
        """A bare merge of a partial persona set must never pass silently."""
        with pytest.raises(ValueError, match="missing personas"):
            merge_shard_results(Seed(1), [_result(0, ["a"])])

    def test_allow_partial_records_missing_personas(self):
        merged = merge_shard_results(
            Seed(1),
            [_result(0, ["a"])],
            expected_personas=["a", "b", "c"],
            allow_partial=True,
        )
        assert merged.missing_personas == ("b", "c")

    def test_complete_merge_has_empty_missing_personas(self):
        merged = merge_shard_results(
            Seed(1), [_result(0, ["a"])], expected_personas=["a"]
        )
        assert merged.missing_personas == ()


class TestRunParallelValidation:
    def test_bad_backend_rejected(self):
        assert BACKENDS == ("process",)
        spec = CampaignSpec.from_dict({"backend": "process", "parallel": True})
        for backend in ["greenlet", "thread"]:
            with pytest.raises(ValueError, match="parallel=False"):
                spec.replace(backend=backend)
        # The kwargs form has no backend argument left, not even "process".
        with pytest.raises(TypeError, match="backend"):
            run_campaign(seed=1, parallel=True, backend="process")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(seed=1, parallel=True, workers=0)
