"""Serial vs parallel observability equivalence.

The tentpole invariant of the observability layer: the merged
simulated-time span tree of a persona-sharded parallel run is
byte-identical to the serial run's for the same seed and config, and
every persona-driven counter agrees.  Real-time fields are excluded by
construction — ``sim_tree_json()`` serialises only deterministic
simulated-clock data.
"""

import json

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.util.rng import Seed

SEED_ROOT = 2026

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


@pytest.fixture(scope="module")
def serial_obs():
    return run_campaign(TINY, Seed(SEED_ROOT)).obs


@pytest.fixture(scope="module")
def parallel_obs():
    dataset = run_campaign(TINY, Seed(SEED_ROOT), parallel=True, workers=4)
    return dataset.obs


class TestSimTreeEquivalence:
    def test_sim_tree_byte_identical(self, serial_obs, parallel_obs):
        assert serial_obs.tracer.sim_tree_json() == parallel_obs.tracer.sim_tree_json()

    def test_counters_identical(self, serial_obs, parallel_obs):
        assert (
            serial_obs.metrics.as_dict()["counters"]
            == parallel_obs.metrics.as_dict()["counters"]
        )

    def test_tree_is_nonempty_and_persona_scoped(self, serial_obs):
        tree = json.loads(serial_obs.tracer.sim_tree_json())
        assert tree[0]["name"] == "campaign"
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node["children"]:
                walk(child)

        walk(tree[0])
        assert {"phase:discovery", "phase:install", "persona:install"} <= names

    def test_manifests_differ_only_in_topology(self, serial_obs, parallel_obs):
        serial = serial_obs.manifest
        parallel = parallel_obs.manifest
        assert serial.config_fingerprint == parallel.config_fingerprint
        assert serial.seed_root == parallel.seed_root == SEED_ROOT
        assert serial.entrypoint == "serial"
        assert parallel.entrypoint == "parallel"
        # Shards partition the same roster the serial run processes whole.
        serial_roster = list(serial.shards[0])
        parallel_roster = [name for shard in parallel.shards for name in shard]
        assert sorted(parallel_roster) == sorted(serial_roster)
