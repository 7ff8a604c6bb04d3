"""Storage chaos integration: the determinism bar and clean degrade.

The contract under test: for any storage fault profile where writes
eventually succeed, a campaign's exports are **byte-identical** to a
no-fault run — serial and parallel — because every transient fault is
retried behind the atomic-publish seam and every corrupt read lands on
a self-healing path.  When writes stop succeeding (``ENOSPC``), the
campaign degrades to an honest ``partial`` instead of wedging, and a
rerun with space back resumes to the identical bytes.
"""

import hashlib
import json
import urllib.request

import pytest

from repro.core.campaign import run_campaign, run_segment_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset, export_segment_store
from repro.core.iosim import (
    StorageFaultPlan,
    StorageFaultProfile,
    storage_faults,
)
from repro.core.segments import SegmentStore
from repro.util.rng import Seed

SEED_ROOT = 42

CONFIG = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


def _digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """No-fault serial exports: the byte oracle."""
    out = tmp_path_factory.mktemp("no-fault")
    dataset = run_campaign(CONFIG, Seed(SEED_ROOT), obs=False)
    export_dataset(dataset, out)
    return _digests(out)


class TestByteIdenticalUnderFaults:
    @pytest.mark.parametrize("profile", ["mild", "harsh"])
    def test_serial_segment_campaign(self, reference, tmp_path, profile):
        with storage_faults(profile, seed=SEED_ROOT) as plan:
            store = run_segment_campaign(
                CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "s"
            )
            export_segment_store(store, tmp_path / "out")
        assert _digests(tmp_path / "out") == reference
        assert store.status() == "complete"
        # The run was genuinely faulted — and said so in the manifest.
        manifest = store.read_manifest()
        assert manifest["storage"]["profile"] == profile
        assert sum(manifest["storage"]["counters"].values()) > 0

    @pytest.mark.parametrize("profile", ["mild", "harsh"])
    def test_parallel_segment_campaign(self, reference, tmp_path, profile):
        with storage_faults(profile, seed=SEED_ROOT):
            store = run_segment_campaign(
                CONFIG,
                Seed(SEED_ROOT),
                store_dir=tmp_path / "s",
                parallel=True,
                workers=4,
            )
            export_segment_store(store, tmp_path / "out")
        assert _digests(tmp_path / "out") == reference
        assert store.status() == "complete"

    @pytest.mark.parametrize("parallel", [False, True])
    def test_memory_campaign_touches_no_storage(
        self, reference, tmp_path, monkeypatch, parallel
    ):
        """The memory store writes and reads nothing durable, so no
        storage fault can apply to it: neither seam is ever entered."""
        import repro.core.checkpoint
        import repro.core.iosim

        def refuse(component, op, *args, **kwargs):
            raise AssertionError(f"memory campaign entered the seam: {component}/{op}")

        monkeypatch.setattr(repro.core.iosim, "run_with_retries", refuse)
        monkeypatch.setattr(repro.core.checkpoint, "run_with_retries", refuse)
        profile = StorageFaultProfile(
            name="always-slow", slow_rate=1.0, slow_seconds=(0.0, 0.0005)
        )
        plan = StorageFaultPlan(Seed(SEED_ROOT), profile)
        with storage_faults(plan):
            dataset = run_campaign(
                CONFIG,
                Seed(SEED_ROOT),
                parallel=parallel,
                workers=2 if parallel else None,
                on_shard_failure="raise" if parallel else "retry",
            )
        export_dataset(dataset, tmp_path / "out")
        assert _digests(tmp_path / "out") == reference
        assert plan.snapshot() == {}
        assert not any(
            name.startswith("storage.") for name in dataset.obs.summary()["counters"]
        )


class TestEnospcDegrade:
    def test_exhausted_disk_degrades_to_partial_then_resumes(self, tmp_path):
        plan = StorageFaultPlan.from_profile("none", SEED_ROOT).exhaust(
            "segments", "segment", after=4
        )
        with storage_faults(plan):
            store = run_segment_campaign(
                CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "s"
            )
        assert store.status() == "partial"
        manifest = store.read_manifest()
        missing = manifest["missing_personas"]
        assert missing  # the uncovered tail is accounted, not lost
        assert plan.snapshot()["storage.enospc"] >= 1
        covered = store.covered_positions()
        assert len(covered) + len(missing) == len(manifest["roster"])
        roster = manifest["roster"]
        assert missing == sorted(
            name for pos, name in enumerate(roster) if pos not in covered
        )

        # Space comes back: the rerun covers only the missing tail and
        # the exports equal a never-faulted store's, byte for byte.
        resumed = run_segment_campaign(
            CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        assert resumed.status() == "complete"
        export_segment_store(resumed, tmp_path / "out")
        fresh = run_segment_campaign(
            CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "fresh"
        )
        export_segment_store(fresh, tmp_path / "fresh-out")
        assert _digests(tmp_path / "out") == _digests(tmp_path / "fresh-out")


    def test_full_disk_at_the_digest_cache_keeps_a_complete_manifest(
        self, tmp_path
    ):
        # The cache is published after the manifest and is advisory: a
        # full disk there costs the next scan a cold verify, nothing else.
        plan = StorageFaultPlan.from_profile("none", SEED_ROOT).exhaust(
            "segments", "digest-cache"
        )
        with storage_faults(plan):
            store = run_segment_campaign(
                CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "s"
            )
        assert plan.snapshot()["storage.enospc"] == 1
        assert store.status() == "complete"
        assert not store.digest_cache_path.exists()
        export_segment_store(store, tmp_path / "out")


class TestColdFallbackRegression:
    """Mid-file truncation of acceleration artifacts must never crash a
    reader — the cold path (full re-verify, index rebuild) absorbs it."""

    def test_truncated_digest_cache_and_index_fall_back_cold(self, tmp_path):
        store = run_segment_campaign(
            CONFIG, Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        export_segment_store(store, tmp_path / "out")
        baseline = _digests(tmp_path / "out")

        cache_path = store.digest_cache_path
        if cache_path.exists():
            cache_path.write_bytes(cache_path.read_bytes()[: 20])
        for index in store.batches_dir.glob("index-*.json"):
            index.write_bytes(index.read_bytes()[: 25])

        reopened = SegmentStore(
            tmp_path / "s",
            store.seed_root,
            store.config_fingerprint,
            store.roster,
        )
        assert reopened.status() == "complete"
        export_segment_store(reopened, tmp_path / "out2")
        assert _digests(tmp_path / "out2") == baseline


class TestServiceTornTailRestart:
    def test_sse_replay_after_torn_tail_terminates_with_end_frame(
        self, tmp_path
    ):
        from repro.core.campaign import CampaignSpec
        from repro.service import AuditService

        spec = CampaignSpec(config=CONFIG, seed=31)
        with AuditService(tmp_path, port=0, total_workers=2) as service:
            job = service.scheduler.submit(spec)
            assert service.scheduler.wait_idle(timeout=120)
            events_path = job.events_path
        # Crash mid-append: a torn fragment at the tail of the log.
        fragment = '{"schema": 1, "seq": 99, "type": "job.pro'
        with events_path.open("ab") as handle:
            handle.write(fragment.encode("utf-8"))

        # Restarted service: replay skips the torn tail, seq continues,
        # and the SSE stream still closes with its end frame.
        with AuditService(tmp_path, port=0, total_workers=2) as restarted:
            with urllib.request.urlopen(
                f"{restarted.url}/campaigns/{job.id}/events?follow=1",
                timeout=30,
            ) as response:
                body = response.read().decode("utf-8")
        frames = [f for f in body.split("\n\n") if f.strip()]
        assert frames[-1].startswith("event: end")
        data_frames = [f for f in frames if f.startswith("data: ")]
        records = [json.loads(f[len("data: "):]) for f in data_frames]
        assert [r["seq"] for r in records] == list(range(len(records)))
        # Every job emits job.progress events, so the fragment is
        # looked for whole, not by its type prefix.
        assert fragment not in body
