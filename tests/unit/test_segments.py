"""Tests for the content-addressed segment store (store mechanics).

Byte-identity of segment-store exports against the in-memory path is
pinned in ``tests/integration/test_segment_equivalence.py``; this module
covers the store itself: batch writes, coverage validation, the k-way
merge, point reads, corruption quarantine, and the manifest envelope.
"""

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.segments import (
    SEGMENT_SCHEMA_VERSION,
    STREAMS,
    CorruptSegmentError,
    PositionsCoveredError,
    SegmentStore,
    _dumps,
    persona_stream_records,
    write_dataset_segments,
)

ROSTER = ("alpha", "beta", "gamma", "delta")


def make_store(root) -> SegmentStore:
    return SegmentStore(root, 42, "fingerprint0001", ROSTER)


def bid_records(*positions):
    return {
        "bids": [
            {"pos": pos, "value": f"{pos}-{k}"} for pos in positions for k in range(2)
        ]
    }


class TestWriteBatch:
    def test_roundtrip_preserves_records_and_order(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], bid_records(0, 1))
        assert store.covered_positions() == {0, 1}
        values = [r["value"] for r in store.iter_stream("bids")]
        assert values == ["0-0", "0-1", "1-0", "1-1"]

    def test_out_of_order_batches_merge_to_roster_order(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([2], bid_records(2))
        store.write_batch([0, 3], bid_records(0, 3))
        store.write_batch([1], bid_records(1))
        positions = [r["pos"] for r in store.iter_stream("bids")]
        assert positions == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_point_read_returns_one_persona(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1, 2], bid_records(0, 1, 2))
        assert [r["value"] for r in store.stream_records_for("bids", 1)] == [
            "1-0",
            "1-1",
        ]
        assert store.stream_records_for("bids", 3) == []

    def test_empty_streams_need_no_segment_files(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], {"bids": []})
        assert store.covered_positions() == {0}
        assert list(store.iter_stream("bids")) == []
        assert list(store.iter_stream("ads")) == []

    def test_duplicate_coverage_rejected(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], bid_records(0, 1))
        with pytest.raises(PositionsCoveredError):
            store.write_batch([1, 2], bid_records(1, 2))
        # PositionsCoveredError is also a ValueError for generic callers.
        with pytest.raises(ValueError):
            store.write_batch([0], bid_records(0))

    def test_position_outside_roster_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.write_batch([4], bid_records(4))

    def test_record_outside_batch_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.write_batch([0], bid_records(0, 1))

    def test_unknown_stream_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.write_batch([0], {"bogus": [{"pos": 0}]})
        with pytest.raises(ValueError):
            store.iter_stream("bogus")


class TestValidationAndQuarantine:
    def test_tampered_segment_uncovers_batch(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], bid_records(0, 1))
        store.write_batch([2], bid_records(2))
        segment = next(store.segments_dir.glob("bids-00000000-*.jsonl"))
        segment.write_bytes(segment.read_bytes() + b"tampered\n")
        fresh = make_store(tmp_path)
        assert fresh.covered_positions() == {2}
        assert [r["pos"] for r in fresh.iter_stream("bids")] == [2, 2]
        assert list(fresh.batches_dir.glob("*.corrupt"))

    def test_foreign_marker_ignored(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], bid_records(0))
        marker = next(store.batches_dir.glob("batch-*.json"))
        payload = json.loads(marker.read_text())
        payload["seed_root"] = 999
        marker.write_text(json.dumps(payload))
        fresh = make_store(tmp_path)
        assert fresh.covered_positions() == set()

    def test_stale_schema_marker_ignored(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], bid_records(0))
        marker = next(store.batches_dir.glob("batch-*.json"))
        payload = json.loads(marker.read_text())
        payload["schema"] = SEGMENT_SCHEMA_VERSION + 1
        marker.write_text(json.dumps(payload))
        assert make_store(tmp_path).covered_positions() == set()

    def test_unreadable_marker_quarantined(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], bid_records(0))
        marker = next(store.batches_dir.glob("batch-*.json"))
        marker.write_bytes(b"\x00not json")
        fresh = make_store(tmp_path)
        assert fresh.covered_positions() == set()
        assert list(fresh.batches_dir.glob("*.corrupt"))

    def test_header_mismatch_raises_on_read(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0], bid_records(0))
        segment = next(store.segments_dir.glob("bids-*.jsonl"))
        lines = segment.read_text().splitlines()
        header = json.loads(lines[0])
        header["stream"] = "ads"
        tampered = "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        # Keep the marker digest valid so the batch still scans as
        # covered — the header check is the second line of defense.
        marker = next(store.batches_dir.glob("batch-*.json"))
        payload = json.loads(marker.read_text())
        import hashlib

        payload["segments"]["bids"]["digest"] = hashlib.sha256(
            tampered.encode()
        ).hexdigest()
        segment.write_text(tampered)
        marker.write_text(json.dumps(payload))
        fresh = make_store(tmp_path)
        with pytest.raises(CorruptSegmentError):
            list(fresh.iter_stream("bids"))


class TestManifest:
    def test_ensure_then_match(self, tmp_path):
        store = make_store(tmp_path)
        assert not store.manifest_matches()
        store.ensure_manifest()
        assert store.manifest_matches()
        manifest = store.read_manifest()
        assert manifest["schema"] == SEGMENT_SCHEMA_VERSION
        assert manifest["status"] == "running"
        assert manifest["roster"] == list(ROSTER)

    def test_foreign_manifest_replaced(self, tmp_path):
        store = make_store(tmp_path)
        store.ensure_manifest()
        other = SegmentStore(tmp_path, 42, "fingerprint0001", ("x", "y"))
        # Same campaign dir key but different roster: must not adopt.
        other.campaign_dir = store.campaign_dir
        assert not other.manifest_matches()

    def test_invalid_status_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.write_manifest("done")

    def test_empty_roster_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentStore(tmp_path, 42, "fp", ())
        with pytest.raises(ValueError):
            SegmentStore(tmp_path, 42, "fp", ("a", "a"))


class TestPersonaStreamRecords:
    def test_streams_cover_all_artifacts(self, small_dataset):
        names = list(small_dataset.personas)
        artifacts = small_dataset.personas[names[0]]
        records = persona_stream_records(artifacts, 0)
        assert set(records) == set(STREAMS)
        meta = records["personas"][0]
        assert meta["name"] == names[0]
        assert meta["loaded_slots"] == sorted(artifacts.loaded_slots)
        assert len(records["bids"]) == len(artifacts.bids)
        assert len(records["ads"]) == len(artifacts.ads)
        assert all(r["pos"] == 0 for recs in records.values() for r in recs)

    def test_controls_emit_no_flows_or_policy(self, small_dataset):
        vanilla = small_dataset.vanilla
        records = persona_stream_records(vanilla, 3)
        assert records["flows"] == []
        assert records["policy"] == []

    def test_records_json_roundtrip_exactly(self, small_dataset):
        artifacts = next(iter(small_dataset.personas.values()))
        records = persona_stream_records(artifacts, 0)
        for stream, recs in records.items():
            for record in recs:
                assert json.loads(json.dumps(record)) == record, stream


class TestWriteDatasetSegments:
    def test_materialized_dataset_is_complete(self, small_dataset, tmp_path):
        store = SegmentStore(
            tmp_path, 7, "small0000000000", tuple(small_dataset.personas)
        )
        write_dataset_segments(store, small_dataset)
        assert store.covered_positions() == set(
            range(len(small_dataset.personas))
        )
        assert store.read_manifest()["status"] == "complete"
        total_bids = sum(
            len(a.bids) for a in small_dataset.personas.values()
        )
        assert sum(1 for _ in store.iter_stream("bids")) == total_bids

    def test_roster_mismatch_rejected(self, small_dataset, tmp_path):
        store = SegmentStore(tmp_path, 7, "small0000000000", ("wrong",))
        with pytest.raises(ValueError):
            write_dataset_segments(store, small_dataset)


def _rewrite_segment(store, stream, transform):
    """Rewrite one segment's body lines and refresh the marker digest,
    so the batch still scans as covered and only the reader can object."""
    segment = next(store.segments_dir.glob(f"{stream}-*.jsonl"))
    header, *body = segment.read_text(encoding="utf-8").splitlines()
    tampered = "\n".join([header] + transform(body)) + "\n"
    marker = next(store.batches_dir.glob("batch-*.json"))
    payload = json.loads(marker.read_text())
    payload["segments"][stream]["digest"] = hashlib.sha256(
        tampered.encode()
    ).hexdigest()
    segment.write_text(tampered, encoding="utf-8")
    marker.write_text(json.dumps(payload))
    return make_store(store.root)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(alphabet=st.characters(), max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestEncoderAndDecoder:
    @given(value=json_values)
    @example(value={"z": -0.0, "a": [1e300, "café   \U0001f600"]})
    @example(value={"b": {"y": None, "x": True}, "a": [False, 0, -7]})
    def test_dumps_matches_canonical_json_dumps(self, value):
        assert _dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda body: [body[0] + "," + body[1]] + body[2:],  # two objects
            lambda body: [body[0][:-3]] + body[1:],  # truncated object
            lambda body: body[:1] + ["]"] + body[1:],  # bare bracket
        ],
        ids=["two-objects", "truncated", "bare-bracket"],
    )
    def test_malformed_body_line_raises(self, tmp_path, corrupt):
        store = make_store(tmp_path)
        store.write_batch([0, 1], bid_records(0, 1))
        fresh = _rewrite_segment(store, "bids", corrupt)
        assert fresh.covered_positions() == {0, 1}
        with pytest.raises(json.JSONDecodeError):
            list(fresh.iter_stream("bids"))
        # The indexed point read falls back to the full scan, which
        # reaches the bad line too.
        with pytest.raises(json.JSONDecodeError):
            fresh.stream_records_for("bids", 0)

    def test_blank_lines_are_skipped(self, tmp_path):
        store = make_store(tmp_path)
        store.write_batch([0, 1], bid_records(0, 1))
        expected = list(store.iter_stream("bids"))
        fresh = _rewrite_segment(
            store,
            "bids",
            lambda body: [x for line in body for x in ("", line, "  \t")],
        )
        assert list(fresh.iter_stream("bids")) == expected
        assert fresh.stream_records_for("bids", 1) == expected[2:]
