"""Segment-store exports must be byte-identical to the in-memory path.

The segment store is a storage backend, not an analysis change: for the
same seed and config, streaming the campaign through on-disk segments —
serially or sharded across workers, under a healthy network or fault
injection — must reproduce every export file bit-for-bit.  This suite
pins that, plus the store's reuse/resume semantics and a property test
that the k-way merge reproduces roster order for arbitrary shard splits.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import run_campaign, run_segment_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import (
    EXPORT_FILES,
    export_dataset,
    export_segment_store,
)
from repro.core.personas import scaled_roster
from repro.core.segments import SegmentError, SegmentStore
from repro.util.rng import Seed

SEED_ROOT = 42


def _config(fault_profile="none", **overrides):
    return ExperimentConfig(
        skills_per_persona=2,
        pre_iterations=1,
        post_iterations=1,
        crawl_sites=2,
        prebid_discovery_target=5,
        audio_hours=0.5,
        fault_profile=fault_profile,
        **overrides,
    )


def _digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


@pytest.fixture(scope="module", params=["none", "mild"])
def memory_reference(request, tmp_path_factory):
    """In-memory serial exports per fault profile — the byte oracle."""
    fault_profile = request.param
    out = tmp_path_factory.mktemp(f"memref-{fault_profile}")
    dataset = run_campaign(_config(fault_profile), Seed(SEED_ROOT), obs=False)
    export_dataset(dataset, out)
    return fault_profile, _digests(out)


class TestByteEquivalence:
    def test_serial_segment_campaign(self, memory_reference, tmp_path):
        fault_profile, reference = memory_reference
        store = run_segment_campaign(
            _config(fault_profile), Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        export_segment_store(store, tmp_path / "out")
        assert _digests(tmp_path / "out") == reference

    def test_parallel_process_segment_campaign(self, memory_reference, tmp_path):
        fault_profile, reference = memory_reference
        store = run_segment_campaign(
            _config(fault_profile),
            Seed(SEED_ROOT),
            store_dir=tmp_path / "s",
            parallel=True,
            workers=2,
            batch_personas=3,
        )
        export_segment_store(store, tmp_path / "out")
        assert _digests(tmp_path / "out") == reference


class TestReuseAndResume:
    def test_rerun_reuses_covered_personas(self, tmp_path):
        config = _config()
        store = run_segment_campaign(
            config, Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        markers = sorted(p.name for p in store.batches_dir.glob("batch-*.json"))
        mtimes = {p.name: p.stat().st_mtime_ns for p in store.batches_dir.iterdir()}
        again = run_segment_campaign(
            config, Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        assert sorted(
            p.name for p in again.batches_dir.glob("batch-*.json")
        ) == markers
        # Content-addressed reuse: nothing was rewritten.
        assert {
            p.name: p.stat().st_mtime_ns for p in again.batches_dir.iterdir()
        } == mtimes

    def test_partial_store_resumes_to_identical_bytes(self, tmp_path):
        config = _config()
        interrupted = SegmentStore(
            tmp_path / "s",
            SEED_ROOT,
            _fingerprint(config),
            tuple(p.name for p in scaled_roster(1)),
        )
        # Simulate a kill: cover only a prefix of the roster.
        from repro.core.segments import write_segment_batch

        interrupted.ensure_manifest()
        write_segment_batch(interrupted, Seed(SEED_ROOT), config, [0, 1, 2])
        with pytest.raises(SegmentError):
            export_segment_store(interrupted, tmp_path / "early")

        resumed = run_segment_campaign(
            config, Seed(SEED_ROOT), store_dir=tmp_path / "s"
        )
        export_segment_store(resumed, tmp_path / "resumed")
        fresh = run_segment_campaign(
            config, Seed(SEED_ROOT), store_dir=tmp_path / "fresh"
        )
        export_segment_store(fresh, tmp_path / "fresh-out")
        assert _digests(tmp_path / "resumed") == _digests(tmp_path / "fresh-out")


class TestRosterScale:
    def test_scaled_campaign_exports(self, tmp_path):
        config = _config(roster_scale=2)
        store = run_segment_campaign(
            config, Seed(SEED_ROOT), store_dir=tmp_path / "s", batch_personas=4
        )
        assert len(store.roster) == 9 * 2 + 4
        counts = export_segment_store(store, tmp_path / "out")
        assert counts["bids.csv"] > 0
        import json

        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text(encoding="utf-8")
        )
        assert len(summary["personas"]) == 22
        assert "fashion-and-style-r2" in summary["personas"]
        # Replicated interest personas get their own significance cells.
        assert "fashion-and-style-r2" in summary["significance_vs_vanilla"]


def _fingerprint(config):
    from repro.core.experiment import config_fingerprint

    return config_fingerprint(config)


class TestMergeProperty:
    """The k-way merge reproduces roster order for ANY shard split."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_arbitrary_splits_merge_to_roster_order(self, n, data):
        import tempfile

        labels = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4), min_size=n, max_size=n
            )
        )
        counts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=3), min_size=n, max_size=n
            )
        )
        batches = {}
        for pos, label in enumerate(labels):
            batches.setdefault(label, []).append(pos)
        order = data.draw(st.permutations(sorted(batches)))

        with tempfile.TemporaryDirectory() as root:
            store = SegmentStore(
                root, 1, "prop000000000000", tuple(f"p{i}" for i in range(n))
            )
            for label in order:
                positions = batches[label]
                store.write_batch(
                    positions,
                    {
                        "bids": [
                            {"pos": pos, "seq": k}
                            for pos in positions
                            for k in range(counts[pos])
                        ]
                    },
                )
            merged = [(r["pos"], r["seq"]) for r in store.iter_stream("bids")]
            expected = [
                (pos, k) for pos in range(n) for k in range(counts[pos])
            ]
            assert merged == expected
