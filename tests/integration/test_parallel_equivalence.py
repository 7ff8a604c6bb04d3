"""Serial vs parallel campaign equivalence (the determinism contract).

The parallel runner's whole claim is that sharding the campaign by
persona changes *nothing observable*: for the same seed and config, the
exported dataset — every CSV and the JSON summary — is byte-identical
to the serial run's, for any worker count.
"""

import hashlib

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.export import EXPORT_FILES, export_dataset
from repro.core.personas import all_personas
from repro.core.world import build_world
from repro.util.rng import Seed

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)

SEED_ROOT = 2026


def _export_digests(dataset, out_dir):
    export_dataset(dataset, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


@pytest.fixture(scope="module")
def serial_digests(tmp_path_factory):
    dataset = run_campaign(TINY, Seed(SEED_ROOT))
    out = tmp_path_factory.mktemp("serial-export")
    return _export_digests(dataset, out)


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_export_bit_identical_to_serial(self, serial_digests, tmp_path, workers):
        dataset = run_campaign(TINY, Seed(SEED_ROOT), parallel=True, workers=workers)
        assert _export_digests(dataset, tmp_path) == serial_digests

    def test_different_seed_changes_exports(self, serial_digests, tmp_path):
        dataset = run_campaign(TINY, Seed(SEED_ROOT + 1), parallel=True, workers=2)
        digests = _export_digests(dataset, tmp_path)
        assert digests != serial_digests

    def test_merged_dataset_shape(self):
        dataset = run_campaign(TINY, Seed(SEED_ROOT), parallel=True, workers=3)
        assert list(dataset.personas) == [p.name for p in all_personas()]
        assert dataset.world is not None
        assert len(dataset.prebid_sites) == TINY.prebid_discovery_target
        # Worker wall-clock surfaces per shard, plus parent-side totals.
        assert any(key.startswith("shard0.") for key in dataset.timings)
        assert "total" in dataset.timings and "scatter" in dataset.timings


class TestRunnerSubsets:
    def test_serial_run_records_phase_timings(self):
        dataset = run_campaign(TINY, Seed(SEED_ROOT))
        for phase in ("setup", "discovery", "pre_crawls", "post_crawls", "total"):
            assert phase in dataset.timings
            assert dataset.timings[phase] >= 0.0

    def test_subset_runner_only_builds_its_personas(self):
        roster = all_personas()
        subset = roster[:2]
        world = build_world(Seed(SEED_ROOT))
        dataset = ExperimentRunner(world, TINY, personas=subset).run()
        assert list(dataset.personas) == [p.name for p in subset]

    def test_empty_subset_rejected(self):
        world = build_world(Seed(SEED_ROOT))
        with pytest.raises(ValueError, match="empty"):
            ExperimentRunner(world, TINY, personas=[])

    def test_duplicate_subset_rejected(self):
        roster = all_personas()
        world = build_world(Seed(SEED_ROOT))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentRunner(world, TINY, personas=[roster[0], roster[0]])
