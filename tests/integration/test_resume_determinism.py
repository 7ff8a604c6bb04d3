"""Kill-and-resume equivalence on the segment store.

The tentpole invariant of the crash-safe execution layer: a campaign
interrupted after ≥1 published batch and then re-run into the same
store directory must produce exports **byte-identical** to an
uninterrupted serial run of the same seed and config — under healthy
and mild-faulted networks.  The store's content-addressed batches are
its only durable state: a re-run skips every covered persona and
computes only the rest.

Two interruption styles are exercised:

* **Deterministic interruption** — injected worker crashes exhaust one
  shard's retry budget under ``on_shard_failure="degrade"``, leaving a
  partial store exactly like a preempted run's, with no race on *when*
  the kill lands.
* **Real SIGKILL** — a subprocess running a parallel segment campaign
  is killed -9, with its forked workers, as soon as its first batch
  marker lands, then the campaign is re-run into the same store in this
  process.  (If the subprocess wins the race and finishes, the re-run
  reuses every batch — equality must hold either way.)
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.campaign import (
    CampaignSpec,
    execute_spec,
    run_campaign,
    run_segment_campaign,
)
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset, export_segment_store
from repro.core.parallel import WorkerFaultPlan
from repro.core.segments import SegmentStore
from repro.util.rng import Seed

SEED_ROOT = 2026
WORKERS = 4

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


def _config(fault_profile):
    import dataclasses

    return dataclasses.replace(TINY, fault_profile=fault_profile)


def _digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


def _export_digests(dataset, out_dir):
    export_dataset(dataset, out_dir)
    return _digests(out_dir)


def _store_digests(store, out_dir):
    export_segment_store(store, out_dir)
    return _digests(out_dir)


def _uncovered_names(store):
    """Roster names a fresh handle finds no verified coverage for."""
    fresh = SegmentStore(
        store.root, store.seed_root, store.config_fingerprint, store.roster
    )
    covered = fresh.covered_positions()
    return sorted(
        name for pos, name in enumerate(store.roster) if pos not in covered
    )


@pytest.fixture(scope="module")
def serial_digests(tmp_path_factory):
    """Uninterrupted serial exports per fault profile — the gold bytes."""
    digests = {}
    for profile in ("none", "mild"):
        dataset = run_campaign(_config(profile), Seed(SEED_ROOT))
        out = tmp_path_factory.mktemp(f"serial-{profile}")
        digests[profile] = _export_digests(dataset, out)
    return digests


class TestKillAndResume:
    @pytest.mark.parametrize("profile", ["none", "mild"])
    def test_interrupted_then_resumed_matches_serial(
        self, tmp_path, serial_digests, profile
    ):
        """Crash one shard out of the run, re-run, compare every byte."""
        config = _config(profile)
        store_dir = tmp_path / "store"
        # Shard 3 crashes on every attempt: the run completes degraded,
        # leaving the store exactly as a mid-run kill would — some
        # batches published, one shard's personas missing.
        faults = WorkerFaultPlan.targeted(
            {(3, attempt): "crash" for attempt in (1, 2, 3)}
        )
        partial = run_segment_campaign(
            config,
            Seed(SEED_ROOT),
            store_dir=store_dir,
            parallel=True,
            workers=WORKERS,
            worker_faults=faults,
            on_shard_failure="degrade",
        )
        assert partial.status() == "partial"
        missing = partial.read_manifest()["missing_personas"]
        assert missing  # the interruption really lost data
        assert missing == _uncovered_names(partial)
        published = {
            path: path.stat().st_mtime_ns
            for path in partial.batches_dir.glob("batch-*.json")
        }
        assert published

        resumed = run_segment_campaign(
            config,
            Seed(SEED_ROOT),
            store_dir=store_dir,
            parallel=True,
            workers=WORKERS,
        )
        assert resumed.status() == "complete"
        assert (
            _store_digests(resumed, tmp_path / "resumed")
            == serial_digests[profile]
        )
        # The re-run reused every batch the interrupted run published
        # and computed only the crashed shard's personas.
        for path, mtime_ns in published.items():
            assert path.stat().st_mtime_ns == mtime_ns
        recomputed = len(list(resumed.batches_dir.glob("batch-*.json"))) - len(
            published
        )
        assert recomputed == len(missing)

    def test_sigkill_mid_run_then_resume(self, tmp_path, serial_digests):
        """A real -9 on a parallel segment campaign, resumed to gold bytes."""
        store_dir = tmp_path / "store"
        script = (
            "from repro.core.campaign import run_segment_campaign\n"
            "from repro.core.experiment import ExperimentConfig\n"
            f"config = ExperimentConfig(skills_per_persona=2, pre_iterations=1,"
            f" post_iterations=1, crawl_sites=2, prebid_discovery_target=5,"
            f" audio_hours=0.5)\n"
            f"run_segment_campaign(config, {SEED_ROOT}, parallel=True,"
            f" workers={WORKERS}, store_dir={str(store_dir)!r})\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # Its own session, so one killpg takes the supervisor and every
        # forked worker down together, as a crash of the host would.
        victim = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True
        )
        try:
            # Kill as soon as the first batch marker lands.  If the
            # campaign finishes first, the re-run reuses every batch and
            # the equality below must hold regardless.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and victim.poll() is None:
                if list(store_dir.glob("**/batch-*.json")):
                    break
                time.sleep(0.05)
            if victim.poll() is None:
                os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            try:
                os.killpg(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert list(store_dir.glob("**/batch-*.json")), "no batch ever landed"

        resumed = run_segment_campaign(
            TINY,
            Seed(SEED_ROOT),
            store_dir=store_dir,
            parallel=True,
            workers=WORKERS,
        )
        assert resumed.status() == "complete"
        assert (
            _store_digests(resumed, tmp_path / "resumed")
            == serial_digests["none"]
        )


class TestManifestMatchesCoverage:
    def test_poisoned_shard_that_wrote_its_batches_is_complete(self, tmp_path):
        """A shard whose result is lost after it published every batch
        leaves a covered store: the manifest says so, and it exports."""
        spec = CampaignSpec(
            config=TINY,
            seed=42,
            parallel=True,
            workers=2,
            store="segments",
            store_dir=str(tmp_path / "store"),
            on_shard_failure="degrade",
            max_shard_retries=0,
        )
        counts, store = execute_spec(
            spec,
            tmp_path / "out",
            worker_faults=WorkerFaultPlan.targeted({(1, 1): "poison"}),
        )
        assert _uncovered_names(store) == []
        manifest = store.read_manifest()
        assert manifest["status"] == "complete", manifest
        assert "missing_personas" not in manifest
        assert sorted(counts) == sorted(EXPORT_FILES)
        assert all((tmp_path / "out" / name).exists() for name in EXPORT_FILES)


class TestWatchdogIntegration:
    def test_hung_shard_is_reaped_and_run_completes(
        self, tmp_path, serial_digests
    ):
        """An injected hang never aborts the campaign: the wall-clock
        watchdog reaps the worker and the retry completes the shard."""
        faults = WorkerFaultPlan.targeted({(1, 1): "hang"}, hang_seconds=3600)
        dataset = run_campaign(
            TINY,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            worker_faults=faults,
            # The hung attempt is reaped only when this runs out: 6x the
            # slowest of 10 healthy whole runs of this config (0.62 s on
            # a 2-vCPU container), so a healthy shard never trips it.
            shard_timeout=4.0,
        )
        assert (
            _export_digests(dataset, tmp_path / "out")
            == serial_digests["none"]
        )
        manifest = dataset.obs.manifest
        assert manifest.shard_attempts[1] == ("hang", "ok")
        assert dataset.obs.metrics.value("supervisor.hangs_reaped") == 1


class TestResumeValidation:
    def test_supervisor_knobs_require_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), on_shard_failure="degrade")
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), shard_timeout=5.0)
