"""Tests for the segment-store I/O fast path.

Covers the four hot-path structures: zero-copy batch adoption
(``adopt_batch`` + the ``os.link`` → byte-copy fallback), the per-batch
offset sidecar index behind ``stream_records_for``, the persisted
verified-digest cache, and the non-overlapping merge fast path — plus
the corruption contract (a digest-mismatching segment is quarantined
with a warning, never silently recomputed over).
"""

import json
import logging
import os

import pytest

from repro.obs import ObsCollector
from repro.core.segments import (
    PositionsCoveredError,
    SegmentStore,
    STREAMS,
)

ROSTER = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def make_store(root, fingerprint="fingerprint0001") -> SegmentStore:
    return SegmentStore(root, 42, fingerprint, ROSTER)


def records_for(*positions, streams=("bids", "flows"), per_pos=3):
    """Deterministic synthetic records keyed by position."""
    return {
        stream: [
            {"pos": pos, "stream": stream, "k": k, "value": f"{stream}-{pos}-{k}"}
            for pos in positions
            for k in range(per_pos)
        ]
        for stream in streams
    }


def all_streams(store):
    return {stream: list(store.iter_stream(stream)) for stream in STREAMS}


class TestAdoptBatch:
    def test_adoption_preserves_records_and_counts_links(self, tmp_path):
        prev = make_store(tmp_path / "prev", "fingerprint0001")
        prev.write_batch([0, 1], records_for(0, 1))
        prev.write_batch([2], records_for(2))
        cur = make_store(tmp_path / "cur", "fingerprint0002")
        cur.obs = ObsCollector()
        total = {"linked": 0, "copied": 0}
        for entry in prev.batches():
            counts = cur.adopt_batch(prev, entry)
            total["linked"] += counts["linked"]
            total["copied"] += counts["copied"]
        assert total == {"linked": 4, "copied": 0}  # 2 batches x 2 streams
        assert all_streams(cur) == all_streams(prev)
        counters = cur.obs.metrics.as_dict()["counters"]
        assert counters["segments.reuse.linked"] == 4
        assert "segments.reuse.copied" not in counters

    def test_adopted_files_are_hard_links(self, tmp_path):
        prev = make_store(tmp_path / "prev", "fingerprint0001")
        prev.write_batch([0], records_for(0))
        cur = make_store(tmp_path / "cur", "fingerprint0002")
        cur.adopt_batch(prev, prev.batches()[0])
        source = next(prev.segments_dir.glob("bids-*.jsonl"))
        target = cur.segments_dir / source.name
        assert target.stat().st_ino == source.stat().st_ino

    def test_link_failure_falls_back_to_byte_copy(self, tmp_path, monkeypatch):
        prev = make_store(tmp_path / "prev", "fingerprint0001")
        prev.write_batch([0, 1], records_for(0, 1))
        cur = make_store(tmp_path / "cur", "fingerprint0002")
        cur.obs = ObsCollector()

        def refuse(*args, **kwargs):
            raise OSError("EXDEV: cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        counts = cur.adopt_batch(prev, prev.batches()[0])
        assert counts == {"linked": 0, "copied": 2}
        assert all_streams(cur) == all_streams(prev)
        source = next(prev.segments_dir.glob("bids-*.jsonl"))
        target = cur.segments_dir / source.name
        assert target.read_bytes() == source.read_bytes()
        assert target.stat().st_ino != source.stat().st_ino
        counters = cur.obs.metrics.as_dict()["counters"]
        assert counters["segments.reuse.copied"] == 2

    def test_adopted_marker_records_origin_fingerprint(self, tmp_path):
        prev = make_store(tmp_path / "prev", "fingerprint0001")
        prev.write_batch([0], records_for(0))
        cur = make_store(tmp_path / "cur", "fingerprint0002")
        cur.adopt_batch(prev, prev.batches()[0])
        marker = json.loads(
            next(cur.batches_dir.glob("batch-*.json")).read_text()
        )
        assert marker["origin"] == {"config_fingerprint": "fingerprint0001"}
        assert marker["config_fingerprint"] == "fingerprint0002"
        # A fresh handle re-validates everything from disk, including
        # the adopted headers (stamped with the origin fingerprint).
        fresh = make_store(tmp_path / "cur", "fingerprint0002")
        assert fresh.covered_positions() == {0}
        assert all_streams(fresh) == all_streams(prev)

    def test_second_hand_adoption_keeps_the_original_origin(self, tmp_path):
        first = make_store(tmp_path / "a", "fingerprint000a")
        first.write_batch([0], records_for(0))
        second = make_store(tmp_path / "b", "fingerprint000b")
        second.adopt_batch(first, first.batches()[0])
        third = make_store(tmp_path / "c", "fingerprint000c")
        third.adopt_batch(second, second.batches()[0])
        marker = json.loads(
            next(third.batches_dir.glob("batch-*.json")).read_text()
        )
        # Headers inside the linked files carry store A's fingerprint.
        assert marker["origin"] == {"config_fingerprint": "fingerprint000a"}
        assert all_streams(third) == all_streams(first)

    def test_adoption_rejects_covered_positions_and_foreign_stores(
        self, tmp_path
    ):
        prev = make_store(tmp_path / "prev", "fingerprint0001")
        prev.write_batch([0], records_for(0))
        entry = prev.batches()[0]
        cur = make_store(tmp_path / "cur", "fingerprint0002")
        cur.write_batch([0], records_for(0))
        with pytest.raises(PositionsCoveredError):
            cur.adopt_batch(prev, entry)
        foreign = SegmentStore(tmp_path / "f", 99, "fingerprint0002", ROSTER)
        with pytest.raises(ValueError):
            foreign.adopt_batch(prev, entry)
        other_roster = SegmentStore(
            tmp_path / "r", 42, "fingerprint0002", ("solo",)
        )
        with pytest.raises(ValueError):
            other_roster.adopt_batch(prev, entry)


class TestSidecarIndex:
    def test_point_read_matches_full_scan(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 2, 4], records_for(0, 2, 4))
        store.write_batch([1, 5], records_for(1, 5))
        for pos in range(6):
            expected = [
                r for r in store.iter_stream("bids") if r["pos"] == pos
            ]
            assert store.stream_records_for("bids", pos) == expected

    def test_index_file_written_per_batch(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], records_for(0, 1))
        index = json.loads(
            (store.batches_dir / "index-00000000.json").read_text()
        )
        offsets = index["streams"]["bids"]["offsets"]
        assert set(offsets) == {"0", "1"}
        start, length, count = offsets["1"]
        segment = next(store.segments_dir.glob("bids-*.jsonl"))
        blob = segment.read_bytes()[start : start + length]
        parsed = [json.loads(line) for line in blob.splitlines()]
        assert len(parsed) == count
        assert all(r["pos"] == 1 for r in parsed)

    def test_deleted_index_is_rebuilt_from_the_segment(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1, 2], records_for(0, 1, 2))
        expected = store.stream_records_for("bids", 1)
        index_path = store.batches_dir / "index-00000000.json"
        index_path.unlink()
        fresh = make_store(tmp_path)
        assert fresh.stream_records_for("bids", 1) == expected
        rebuilt = json.loads(index_path.read_text())
        assert set(rebuilt["streams"]["bids"]["offsets"]) == {"0", "1", "2"}

    def test_stale_index_is_rebuilt_not_trusted(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], records_for(0, 1))
        expected = store.stream_records_for("bids", 1)
        index_path = store.batches_dir / "index-00000000.json"
        payload = json.loads(index_path.read_text())
        payload["streams"]["bids"]["digest"] = "0" * 64  # foreign segment
        index_path.write_text(json.dumps(payload))
        fresh = make_store(tmp_path)
        assert fresh.stream_records_for("bids", 1) == expected

    def test_point_reads_never_parse_a_whole_segment(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path)
        store.write_batch([0, 2, 4], records_for(0, 2, 4))
        store.write_batch([1, 5], records_for(1, 5))
        expected = {
            (stream, pos): [
                r for r in store.iter_stream(stream) if r["pos"] == pos
            ]
            for stream in ("bids", "flows")
            for pos in range(6)
        }

        def full_parse(*args, **kwargs):
            raise AssertionError("point read parsed a whole segment file")

        monkeypatch.setattr(SegmentStore, "_segment_records", full_parse)
        # Both the writing handle and a fresh one (which loads the
        # sidecar from disk) serve every position from its byte extent.
        for handle in (store, make_store(tmp_path)):
            for (stream, pos), records in expected.items():
                assert handle.stream_records_for(stream, pos) == records

    def test_point_read_for_uncovered_position_is_empty(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], records_for(0))
        assert store.stream_records_for("bids", 3) == []
        assert store.stream_records_for("audio", 0) == []


class TestDigestCache:
    def test_second_scan_never_rehashes(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], records_for(0, 1))
        store.write_batch([2], records_for(2))
        store.publish_manifest()  # the owner persists the cache here
        warm = make_store(tmp_path)
        warm.obs = ObsCollector()
        warm.covered_positions()
        counters = warm.obs.metrics.as_dict()["counters"]
        # The writer already verified these bytes; the cache it
        # persisted serves every later scan, in any process.
        assert counters["segments.digest_cache.hits"] == 4
        assert "segments.digest_cache.misses" not in counters

    def test_cache_survives_restarts_on_disk(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], records_for(0))
        store.publish_manifest()
        payload = json.loads(store.digest_cache_path.read_text())
        assert len(payload["files"]) == 2  # bids + flows
        for name, entry in payload["files"].items():
            assert set(entry) == {"size", "mtime_ns", "digest"}
            assert (store.segments_dir / name).stat().st_size == entry["size"]

    def test_modified_file_misses_the_cache_and_is_caught(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], records_for(0))
        store.write_batch([1], records_for(1))
        segment = next(store.segments_dir.glob("bids-00000000-*.jsonl"))
        segment.write_bytes(segment.read_bytes() + b"tampered\n")
        fresh = make_store(tmp_path)
        assert fresh.covered_positions() == {1}

    def test_mismatch_quarantines_the_segment_with_a_warning(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], records_for(0))
        segment = next(store.segments_dir.glob("bids-*.jsonl"))
        segment.write_bytes(b"garbage")
        fresh = make_store(tmp_path)
        # Capture on the module logger itself: the CLI cuts propagation
        # at the "repro" root, so a root-attached caplog can miss it.
        captured = []
        handler = logging.Handler()
        handler.emit = captured.append
        log = logging.getLogger("repro.core.segments")
        log.addHandler(handler)
        try:
            assert fresh.covered_positions() == set()
        finally:
            log.removeHandler(handler)
        assert any(
            record.levelno == logging.WARNING
            and "quarantined" in record.getMessage()
            for record in captured
        )
        # The bad segment is preserved as evidence, not left at a live
        # name for the recompute to overwrite; the marker follows.
        assert segment.with_name(segment.name + ".corrupt").exists()
        assert not segment.exists()
        assert list(fresh.batches_dir.glob("*.corrupt"))

    def test_mismatch_clears_the_persisted_cache(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], records_for(0))
        store.write_batch([1], records_for(1))
        store.publish_manifest()
        segment = next(store.segments_dir.glob("bids-00000000-*.jsonl"))
        segment.write_bytes(b"garbage")
        fresh = make_store(tmp_path)
        assert fresh.covered_positions() == {1}
        assert fresh._digest_cache_distrusted
        # Only entries re-verified cold after the mismatch survive; the
        # corrupt file's stale entry is gone with the rest of the
        # pre-mismatch cache.
        payload = json.loads(fresh.digest_cache_path.read_text())
        assert segment.name not in payload["files"]
        for name in payload["files"]:
            assert (fresh.segments_dir / name).exists()
        # The handle that saw the mismatch is no campaign owner, yet its
        # distrust reached disk: a later handle trusts no old entry.
        later = make_store(tmp_path)
        later.obs = ObsCollector()
        assert later.covered_positions() == {1}
        counters = later.obs.metrics.as_dict()["counters"]
        assert "segments.digest_cache.hits" not in counters


class TestMergeFastPath:
    def test_non_overlapping_batches_chain_without_heap(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path)
        store.write_batch([0, 1], records_for(0, 1))
        store.write_batch([2, 3], records_for(2, 3))

        def no_heap(*args, **kwargs):
            raise AssertionError("heap merge on a non-overlapping plan")

        monkeypatch.setattr(
            type(store), "_heap_merge_entries", no_heap
        )
        positions = [r["pos"] for r in store.iter_stream("bids")]
        assert positions == sorted(positions)

    def test_overlapping_batches_still_heap_merge(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 3], records_for(0, 3))
        store.write_batch([1, 2], records_for(1, 2))
        positions = [r["pos"] for r in store.iter_stream("bids")]
        assert positions == sorted(positions)
        values = [r["value"] for r in store.iter_stream("bids")]
        assert values == [f"bids-{p}-{k}" for p in range(4) for k in range(3)]
