"""Kill-and-resume equivalence for checkpointed campaigns.

The tentpole invariant of the crash-safe execution layer: a campaign
interrupted after ≥1 checkpointed shard and then resumed must produce
exports **byte-identical** to an uninterrupted run of the same seed and
config — under healthy and mild-faulted networks.  Shard artifacts are
seed-deterministic, so a resumed shard loaded from the journal is
indistinguishable from a recomputed one; the tests here pin that end to
end.

Two interruption styles are exercised:

* **Deterministic interruption** — injected worker crashes exhaust one
  shard's retry budget under ``on_shard_failure="degrade"``, leaving a
  partial journal exactly like a preempted run's, with no race on *when*
  the kill lands.
* **Real SIGKILL** — a subprocess running the campaign is killed -9 as
  soon as its first checkpoint lands, then the journal is resumed in
  this process.  (If the subprocess wins the race and finishes, resume
  degenerates to an all-checkpoint load — equality must hold either way.)
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.campaign import run_campaign
from repro.core.checkpoint import CheckpointError
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset
from repro.core.parallel import WorkerFaultPlan
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


def _export_digests(dataset, out_dir):
    export_dataset(dataset, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


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
        """Crash one shard out of the run, resume, compare every byte."""
        config = _config(profile)
        ckpt = tmp_path / "journal"
        # Shard 3 crashes on every attempt: the run completes degraded,
        # leaving the journal exactly as a mid-run kill would — some
        # shards checkpointed, one missing.
        faults = WorkerFaultPlan.targeted(
            {(3, attempt): "crash" for attempt in (1, 2, 3)}
        )
        partial = run_campaign(
            config,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            checkpoint_dir=ckpt,
            worker_faults=faults,
            on_shard_failure="degrade",
        )
        assert partial.missing_personas  # the interruption really lost data
        assert (ckpt / "journal.json").is_file()

        resumed = run_campaign(
            config,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            checkpoint_dir=ckpt,
            resume=True,
        )
        assert resumed.missing_personas == ()
        assert (
            _export_digests(resumed, tmp_path / "resumed")
            == serial_digests[profile]
        )
        manifest = resumed.obs.manifest
        assert manifest.resumed and manifest.checkpointed
        # Three shards came from the journal, the crashed one was rerun.
        checkpoint_shards = [
            outcomes
            for outcomes in manifest.shard_attempts
            if outcomes == ("checkpoint",)
        ]
        assert len(checkpoint_shards) == WORKERS - 1
        assert resumed.obs.metrics.value("supervisor.checkpoints_loaded") == (
            WORKERS - 1
        )

    def test_sigkill_mid_run_then_resume(self, tmp_path, serial_digests):
        """A real -9 on a parallel campaign, resumed to gold bytes."""
        ckpt = tmp_path / "journal"
        script = (
            "from repro.core.campaign import run_campaign\n"
            "from repro.core.experiment import ExperimentConfig\n"
            f"config = ExperimentConfig(skills_per_persona=2, pre_iterations=1,"
            f" post_iterations=1, crawl_sites=2, prebid_discovery_target=5,"
            f" audio_hours=0.5)\n"
            f"run_campaign(config, {SEED_ROOT}, parallel=True,"
            f" workers={WORKERS},"
            f" checkpoint_dir={str(ckpt)!r})\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        victim = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            # Kill as soon as the first shard checkpoint lands.  If the
            # campaign finishes first, resume is an all-checkpoint load
            # and the equality below must hold regardless.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and victim.poll() is None:
                if list(ckpt.glob("shard-*.pkl")):
                    break
                time.sleep(0.05)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert list(ckpt.glob("shard-*.pkl")), "no shard ever checkpointed"

        resumed = run_campaign(
            TINY,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            checkpoint_dir=ckpt,
            resume=True,
        )
        assert (
            _export_digests(resumed, tmp_path / "resumed")
            == serial_digests["none"]
        )


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
    def _checkpointed_run(self, ckpt):
        return run_campaign(
            TINY,
            Seed(SEED_ROOT),
            parallel=True,
            workers=WORKERS,
            checkpoint_dir=ckpt,
        )

    def test_resume_with_wrong_seed_rejected(self, tmp_path):
        self._checkpointed_run(tmp_path / "journal")
        with pytest.raises(CheckpointError, match="seed_root"):
            run_campaign(
                TINY,
                Seed(SEED_ROOT + 1),
                parallel=True,
                workers=WORKERS,
                checkpoint_dir=tmp_path / "journal",
                resume=True,
            )

    def test_resume_with_wrong_config_rejected(self, tmp_path):
        self._checkpointed_run(tmp_path / "journal")
        with pytest.raises(CheckpointError, match="config_fingerprint"):
            run_campaign(
                _config("mild"),
                Seed(SEED_ROOT),
                parallel=True,
                workers=WORKERS,
                checkpoint_dir=tmp_path / "journal",
                resume=True,
            )

    def test_resume_with_wrong_worker_count_rejected(self, tmp_path):
        self._checkpointed_run(tmp_path / "journal")
        with pytest.raises(CheckpointError, match="plan_digest"):
            run_campaign(
                TINY,
                Seed(SEED_ROOT),
                parallel=True,
                workers=WORKERS - 1,
                checkpoint_dir=tmp_path / "journal",
                resume=True,
            )

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_campaign(
                TINY, Seed(SEED_ROOT), parallel=True, resume=True
            )

    def test_supervisor_knobs_require_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), checkpoint_dir="/tmp/x")
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), on_shard_failure="degrade")
        with pytest.raises(ValueError, match="parallel"):
            run_campaign(TINY, Seed(SEED_ROOT), shard_timeout=5.0)
