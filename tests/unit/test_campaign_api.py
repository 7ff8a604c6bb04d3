"""Unit tests for the unified run_campaign entrypoint (repro.core.campaign)."""

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.obs import ObsCollector
from repro.util.rng import Seed

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


class TestSerialPath:
    def test_returns_dataset_with_obs(self):
        dataset = run_campaign(TINY, 2001)
        assert dataset.personas
        assert dataset.obs is not None
        assert dataset.obs.manifest.entrypoint == "serial"
        assert dataset.obs.manifest.seed_root == 2001
        assert dataset.obs.manifest.workers == 1
        assert dataset.obs.manifest.phase_real_seconds

    def test_obs_false_disables(self):
        dataset = run_campaign(TINY, 2001, obs=False)
        assert dataset.obs is None

    def test_caller_supplied_collector(self):
        collector = ObsCollector()
        dataset = run_campaign(TINY, 2001, obs=collector)
        assert dataset.obs is collector
        assert collector.metrics.value("skills.installed") > 0

    def test_accepts_seed_object(self):
        dataset = run_campaign(TINY, Seed(2001))
        assert dataset.obs.manifest.seed_root == 2001


class TestParallelPath:
    def test_parallel_run_merges_obs(self):
        dataset = run_campaign(TINY, 2002, parallel=True, workers=2)
        assert dataset.obs is not None
        manifest = dataset.obs.manifest
        assert manifest.entrypoint == "parallel"
        assert manifest.backend == "process"
        assert manifest.workers == len(manifest.shards) == 2
        assert manifest.persona_count == len(dataset.personas)


class TestValidation:
    def test_workers_without_parallel(self):
        with pytest.raises(ValueError, match="parallel=True"):
            run_campaign(TINY, 1, workers=4)

    def test_parallel_with_cache(self, tmp_path):
        with pytest.raises(TypeError, match="unexpected keyword argument 'cache'"):
            run_campaign(TINY, 1, parallel=True, cache=tmp_path)

    def test_parallel_with_caller_collector(self):
        with pytest.raises(ValueError, match="caller-supplied"):
            run_campaign(TINY, 1, parallel=True, obs=ObsCollector())

    def test_rejects_bad_seed_type(self):
        with pytest.raises(TypeError, match="seed"):
            run_campaign(TINY, "42")
        with pytest.raises(TypeError, match="seed"):
            run_campaign(TINY, True)

    def test_rejects_bad_obs_type(self):
        with pytest.raises(TypeError, match="obs"):
            run_campaign(TINY, 1, obs="trace.jsonl")

    def test_rejects_bad_cache_type(self):
        with pytest.raises(TypeError, match="cache"):
            run_campaign(TINY, 1, cache=42)


class TestLegacyShimsRemoved:
    """The pre-1.6 entrypoints are gone, not just deprecated."""

    def test_run_experiment_is_gone(self):
        import repro.core.experiment as experiment

        assert not hasattr(experiment, "run_experiment")
        assert not hasattr(experiment, "run_cached_experiment")
        assert "run_experiment" not in experiment.__all__

    def test_run_parallel_experiment_is_gone(self):
        import repro.core.parallel as parallel

        assert not hasattr(parallel, "run_parallel_experiment")
        assert "run_parallel_experiment" not in parallel.__all__

    def test_dataset_cache_and_shard_journal_are_gone(self, tmp_path):
        import repro.core.checkpoint as checkpoint

        with pytest.raises(ModuleNotFoundError):
            import repro.core.cache  # noqa: F401
        assert checkpoint.__all__ == [
            "atomic_write_bytes", "fsync_dir", "quarantine_path"
        ]
        for kwargs in ({"checkpoint_dir": tmp_path}, {"resume": True}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                run_campaign(TINY, 1, parallel=True, **kwargs)
