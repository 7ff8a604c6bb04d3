"""Campaign behaviour under injected network faults.

Two contracts ride on the fault subsystem:

* **Graceful degradation** — a faulted campaign still completes and
  yields a valid (partial) dataset, with every failure accounted for in
  the observability counters rather than lost in a traceback.
* **Determinism** — fault schedules derive from the root seed, keyed per
  ``(actor, domain)``, so the persona-sharded parallel runner stays
  byte-identical to the serial runner under every profile, and a
  different seed faults different requests.
"""

import dataclasses
import hashlib
import threading

import pytest

from repro.core.campaign import CampaignSpec, execute_spec, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset
from repro.core.personas import all_personas
from repro.util.rng import Seed

SEED_ROOT = 2026

TINY_MILD = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
    fault_profile="mild",
)


def _export_digests(dataset, out_dir):
    export_dataset(dataset, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def _counters(dataset):
    return dataset.obs.metrics.as_dict()["counters"]


@pytest.fixture(scope="module")
def mild_serial(tmp_path_factory):
    dataset = run_campaign(TINY_MILD, Seed(SEED_ROOT))
    out = tmp_path_factory.mktemp("mild-serial")
    return dataset, _export_digests(dataset, out)


class TestGracefulDegradation:
    def test_faulted_campaign_completes(self, mild_serial):
        dataset, _ = mild_serial
        assert list(dataset.personas) == [p.name for p in all_personas()]
        assert dataset.world.fault_plan is not None
        assert dataset.world.fault_plan.profile.name == "mild"

    def test_faults_actually_fired(self, mild_serial):
        dataset, _ = mild_serial
        counters = _counters(dataset)
        injected = sum(
            v for k, v in counters.items() if k.startswith("net.faults.")
        )
        assert injected > 0, f"no faults injected; counters: {counters}"

    def test_clients_retried(self, mild_serial):
        dataset, _ = mild_serial
        counters = _counters(dataset)
        retries = sum(v for k, v in counters.items() if k.endswith(".retries"))
        assert retries > 0

    def test_manifest_records_profile(self, mild_serial):
        dataset, _ = mild_serial
        assert dataset.obs.manifest.fault_profile == "mild"
        assert dataset.obs.manifest.to_dict()["fault_profile"] == "mild"

    def test_mild_exports_differ_from_healthy(self, mild_serial, tmp_path):
        _, mild_digests = mild_serial
        healthy = run_campaign(
            dataclasses.replace(TINY_MILD, fault_profile="none"), Seed(SEED_ROOT)
        )
        assert _export_digests(healthy, tmp_path) != mild_digests


class TestFaultDeterminism:
    def test_parallel_byte_identical_under_faults(self, mild_serial, tmp_path):
        _, serial_digests = mild_serial
        dataset = run_campaign(TINY_MILD, Seed(SEED_ROOT), parallel=True, workers=4)
        assert _export_digests(dataset, tmp_path) == serial_digests

    def test_parallel_merge_keeps_fault_counters(self):
        dataset = run_campaign(TINY_MILD, Seed(SEED_ROOT), parallel=True, workers=2)
        counters = _counters(dataset)
        assert sum(
            v for k, v in counters.items() if k.startswith("net.faults.")
        ) > 0
        assert dataset.obs.manifest.fault_profile == "mild"

    def test_concurrent_runs_in_threads_match_a_serial_run(self, tmp_path):
        """Two jobs of one spec at once, each in its own thread as the
        service scheduler runs them, share the process's stream pool and
        evict each other's fault generators; each still exports the
        serial run's bytes."""
        spec = CampaignSpec(config=TINY_MILD, seed=SEED_ROOT)
        execute_spec(spec, tmp_path / "serial")
        errors = []

        def job(name):
            try:
                execute_spec(spec, tmp_path / name)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=job, args=(f"thread-{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        serial = _tree(tmp_path / "serial")
        assert set(serial) == set(EXPORT_FILES)
        for i in range(2):
            assert _tree(tmp_path / f"thread-{i}") == serial, i

    def test_different_seed_faults_different_requests(self, mild_serial, tmp_path):
        _, serial_digests = mild_serial
        other = run_campaign(TINY_MILD, Seed(SEED_ROOT + 1))
        assert _export_digests(other, tmp_path) != serial_digests
