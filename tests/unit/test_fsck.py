"""Unit tests for the cold integrity audit (repro.core.fsck).

Every corruption class the storage fault injector can leave behind must
be detected, classified (ok / repaired / quarantined / unrecoverable),
and — under ``repair=True`` — fixed well enough that the online
machinery recovers: rebuilt indexes serve point reads, truncated event
logs append cleanly.
"""

import json

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.experiment import ExperimentConfig
from repro.core.fsck import fsck_path
from repro.core.segments import SegmentStore
from repro.service.jobs import JobStore

ROSTER = ("alpha", "beta", "gamma", "delta")

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


def make_store(root) -> SegmentStore:
    store = SegmentStore(root, 42, "fingerprint0001", ROSTER)
    store.ensure_manifest()
    return store


def bid_records(*positions):
    return {
        "bids": [
            {"pos": pos, "value": f"{pos}-{k}"}
            for pos in positions
            for k in range(2)
        ]
    }


def populated_store(root) -> SegmentStore:
    store = make_store(root)
    store.write_batch([0, 1], bid_records(0, 1))
    store.write_batch([2, 3], bid_records(2, 3))
    store.write_manifest("complete")
    return store


class TestDetection:
    def test_rejects_unrecognized_directories(self, tmp_path):
        (tmp_path / "stuff.txt").write_text("hello")
        with pytest.raises(ValueError, match="not a segment store"):
            fsck_path(tmp_path)
        with pytest.raises(ValueError, match="not a directory"):
            fsck_path(tmp_path / "stuff.txt")

    def test_detects_each_tree_kind(self, tmp_path):
        store = populated_store(tmp_path / "store")
        JobStore(tmp_path / "service").submit(CampaignSpec(config=TINY, seed=5))
        assert fsck_path(tmp_path / "store")["kind"] == "segment-store"
        assert fsck_path(store.campaign_dir)["kind"] == "segment-campaign"
        assert fsck_path(tmp_path / "service")["kind"] == "job-tree"


class TestSegmentCampaign:
    def test_clean_store_is_all_ok(self, tmp_path):
        populated_store(tmp_path)
        report = fsck_path(tmp_path)
        assert report["ok"] > 0
        assert report["repaired"] == 0
        assert report["quarantined"] == 0
        assert report["unrecoverable"] == 0
        assert report["actions"] == []

    def test_corrupt_manifest_is_unrecoverable(self, tmp_path):
        store = populated_store(tmp_path)
        store.manifest_path.write_text("{torn")
        report = fsck_path(tmp_path, repair=True)
        assert report["unrecoverable"] == 1
        assert store.manifest_path.exists()  # left in place for the operator

    def test_digest_mismatched_segment_quarantines_whole_batch(self, tmp_path):
        store = populated_store(tmp_path)
        segment = sorted(store.segments_dir.iterdir())[0]
        raw = bytearray(segment.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        segment.write_bytes(bytes(raw))

        dry = fsck_path(tmp_path)
        assert dry["quarantined"] == 2  # segment + its marker
        assert all(not action["applied"] for action in dry["actions"])
        assert segment.exists()  # dry run touched nothing

        report = fsck_path(tmp_path, repair=True)
        assert report["quarantined"] == 2
        assert not segment.exists()
        assert segment.with_suffix(segment.suffix + ".corrupt").exists()
        marker = store.batches_dir / "batch-00000000.json"
        assert not marker.exists()
        # The batch is now uncovered; a rerun recomputes it.
        store.invalidate_scan()
        assert store.covered_positions() == {2, 3}

    def test_corrupt_marker_quarantined(self, tmp_path):
        store = populated_store(tmp_path)
        marker = store.batches_dir / "batch-00000000.json"
        marker.write_text('{"schema": 999}')
        report = fsck_path(tmp_path, repair=True)
        assert report["quarantined"] == 1
        assert not marker.exists()

    def test_broken_index_is_rebuilt(self, tmp_path):
        store = populated_store(tmp_path)
        index = store.batches_dir / "index-00000000.json"
        original = json.loads(index.read_text())
        index.write_bytes(index.read_bytes()[:30])  # torn mid-file
        report = fsck_path(tmp_path, repair=True)
        assert report["repaired"] == 1
        rebuilt = json.loads(index.read_text())
        assert rebuilt == original
        # The rebuilt index serves point reads.
        fresh = SegmentStore(tmp_path, 42, "fingerprint0001", ROSTER)
        assert [r["value"] for r in fresh.stream_records_for("bids", 1)] == [
            "1-0",
            "1-1",
        ]

    def test_missing_index_is_rebuilt(self, tmp_path):
        store = populated_store(tmp_path)
        (store.batches_dir / "index-00000002.json").unlink()
        report = fsck_path(tmp_path, repair=True)
        assert report["repaired"] == 1
        assert (store.batches_dir / "index-00000002.json").exists()

    def test_garbage_digest_cache_is_dropped(self, tmp_path):
        store = populated_store(tmp_path)
        store.digest_cache_path.write_text("{not json")
        report = fsck_path(tmp_path, repair=True)
        assert report["repaired"] == 1
        assert not store.digest_cache_path.exists()

    def test_stale_digest_cache_entries_are_pruned(self, tmp_path):
        store = populated_store(tmp_path)
        # Warm the real cache, then poison one entry's digest.
        fresh = SegmentStore(tmp_path, 42, "fingerprint0001", ROSTER)
        list(fresh.iter_stream("bids"))
        fresh._flush_digest_cache()
        payload = json.loads(store.digest_cache_path.read_text())
        assert payload["files"]
        name = sorted(payload["files"])[0]
        payload["files"][name]["digest"] = "0" * 64
        payload["files"]["ghost.jsonl"] = {
            "size": 1, "mtime_ns": 1, "digest": "x"
        }
        store.digest_cache_path.write_text(json.dumps(payload))
        report = fsck_path(tmp_path, repair=True)
        assert report["repaired"] == 1
        pruned = json.loads(store.digest_cache_path.read_text())["files"]
        assert name not in pruned
        assert "ghost.jsonl" not in pruned
        # Clean pass after repair.
        after = fsck_path(tmp_path)
        assert after["repaired"] == after["quarantined"] == 0
        assert after["unrecoverable"] == 0


class TestJobTree:
    def _job(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(CampaignSpec(config=TINY, seed=5))
        job.events.emit("job.submitted")
        job.events.emit("job.started")
        return job

    def test_clean_job_tree(self, tmp_path):
        self._job(tmp_path)
        report = fsck_path(tmp_path)
        assert report["unrecoverable"] == 0
        assert report["quarantined"] == 0

    def test_corrupt_spec_is_unrecoverable(self, tmp_path):
        job = self._job(tmp_path)
        (job.root / "spec.json").write_text('{"config": "gone"')
        report = fsck_path(tmp_path, repair=True)
        assert report["unrecoverable"] == 1

    def test_corrupt_state_is_quarantined(self, tmp_path):
        job = self._job(tmp_path)
        (job.root / "state.json").write_text("{half")
        report = fsck_path(tmp_path, repair=True)
        assert report["quarantined"] == 1
        assert not (job.root / "state.json").exists()
        assert (job.root / "state.json.corrupt").exists()

    def test_torn_event_tail_is_truncated(self, tmp_path):
        job = self._job(tmp_path)
        healthy = job.events_path.read_bytes()
        with job.events_path.open("ab") as handle:
            handle.write(b'{"schema": 1, "seq": 2, "ty')  # crash mid-append
        report = fsck_path(tmp_path, repair=True)
        assert report["repaired"] == 1
        assert job.events_path.read_bytes() == healthy

    def test_interior_event_damage_is_unrecoverable(self, tmp_path):
        job = self._job(tmp_path)
        lines = job.events_path.read_text().splitlines()
        lines[0] = "{rotted}"
        job.events_path.write_text("\n".join(lines) + "\n")
        report = fsck_path(tmp_path, repair=True)
        assert report["unrecoverable"] == 1

    def test_seq_gap_is_unrecoverable(self, tmp_path):
        job = self._job(tmp_path)
        lines = job.events_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["seq"] = 7
        lines[1] = json.dumps(record)
        job.events_path.write_text("\n".join(lines) + "\n")
        report = fsck_path(tmp_path)
        assert report["unrecoverable"] == 1

    def test_single_job_dir_and_nested_trees(self, tmp_path):
        job = self._job(tmp_path)
        populated_store(job.root / "segments")
        report = fsck_path(job.root)
        assert report["kind"] == "job"
        assert report["unrecoverable"] == 0
        # Nested artifacts were walked too.
        artifacts = report["ok"]
        assert artifacts > 10
