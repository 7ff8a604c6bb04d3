"""Incremental timeline epochs must export byte-identically to cold runs.

The tentpole correctness pin: an epoch executed incrementally — clean
personas copied from the previous epoch's store, only the dirty set
re-run — produces export files bit-for-bit equal to recomputing the
whole roster from scratch, serially and sharded, healthy and under
fault injection.  The suite also pins the reuse accounting (a timeline
whose mutations touch a minority of personas re-executes only that
minority) and the delta report's shape.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignSpec
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES
from repro.core.personas import scaled_roster
from repro.core.timeline import (
    EpochSpec,
    TimelineSpec,
    dirty_positions,
    run_timeline,
)

SEED_ROOT = 7


def _config(fault_profile="none"):
    return ExperimentConfig(
        skills_per_persona=2,
        pre_iterations=1,
        post_iterations=1,
        crawl_sites=2,
        prebid_discovery_target=5,
        audio_hours=0.5,
        fault_profile=fault_profile,
    )


def _base(fault_profile="none", **overrides):
    return CampaignSpec(
        config=_config(fault_profile),
        seed=SEED_ROOT,
        store="segments",
        **overrides,
    )


def _spec(base):
    """Two epochs whose mutations dirty a strict minority of the roster."""
    return TimelineSpec(
        base=base,
        epochs=(
            EpochSpec(),
            EpochSpec(
                interest_drift=("dating:2", "smart-home:1"),
                catalog_churn=("pets-and-animals:e1-salt",),
                filterlist_add=("fresh.tracker.example",),
            ),
        ),
    )


def _epoch_digests(out_dir, index):
    epoch_dir = out_dir / f"epoch-{index:02d}"
    return {
        name: hashlib.sha256((epoch_dir / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


@pytest.fixture(scope="module", params=["none", "mild"])
def cold_reference(request, tmp_path_factory):
    """Cold (full-recompute) serial exports per fault profile."""
    fault_profile = request.param
    out = tmp_path_factory.mktemp(f"cold-{fault_profile}")
    run_timeline(_spec(_base(fault_profile)), out, incremental=False)
    return fault_profile, (_epoch_digests(out, 0), _epoch_digests(out, 1))


class TestByteEquivalence:
    def test_incremental_serial_matches_cold(self, cold_reference, tmp_path):
        fault_profile, reference = cold_reference
        result = run_timeline(_spec(_base(fault_profile)), tmp_path)
        assert (_epoch_digests(tmp_path, 0), _epoch_digests(tmp_path, 1)) == reference
        # Epoch 1 really was incremental: the three mutated personas
        # (two drifted + one churned category) re-ran, the rest copied.
        assert result.epochs[1].personas_recomputed == 3
        assert result.epochs[1].personas_reused == len(scaled_roster(1)) - 3

    def test_incremental_parallel_matches_cold(self, cold_reference, tmp_path):
        fault_profile, reference = cold_reference
        spec = _spec(_base(fault_profile, parallel=True, workers=4))
        result = run_timeline(spec, tmp_path)
        assert (_epoch_digests(tmp_path, 0), _epoch_digests(tmp_path, 1)) == reference
        assert result.epochs[1].personas_recomputed == 3


class TestReuseAccounting:
    def test_minority_dirty_set_reexecutes_only_dirty(self, tmp_path):
        spec = _spec(_base())
        roster = scaled_roster(1)
        dirty = dirty_positions(
            SEED_ROOT,
            spec.effective_config(0),
            spec.effective_config(1),
            roster,
        )
        assert 0 < len(dirty) < 0.3 * len(roster)
        result = run_timeline(spec, tmp_path)
        assert result.epochs[1].personas_recomputed == len(dirty)
        assert result.epochs[1].personas_reused == len(roster) - len(dirty)

    def test_manifest_publishes_reuse_counters(self, tmp_path):
        spec = _spec(_base())
        result = run_timeline(spec, tmp_path)
        manifest_path = Path(result.epochs[1].campaign_dir) / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        reuse = manifest["timeline"].pop("reuse")
        assert manifest["timeline"] == {
            "epoch": 1,
            "incremental": True,
            "personas_reused": result.epochs[1].personas_reused,
            "personas_recomputed": result.epochs[1].personas_recomputed,
        }
        # Every clean persona sits in its own single-position batch
        # (batch_personas=1), so reuse is pure file adoption: segment
        # files hard-linked, zero record-level JSON round trips.
        assert reuse["linked"] > 0
        assert reuse["copied"] == 0
        assert reuse["records"] == 0
        assert manifest["status"] == "complete"

    def test_straddling_batches_copy_only_clean_records(self, tmp_path):
        # batch_personas=4 makes epoch-0 batches span several personas,
        # so epoch 1's dirty set straddles some batches: those transfer
        # record-by-record while fully-clean batches still adopt whole.
        spec = _spec(_base(batch_personas=4))
        result = run_timeline(spec, tmp_path)
        manifest_path = Path(result.epochs[1].campaign_dir) / "MANIFEST.json"
        reuse = json.loads(manifest_path.read_text())["timeline"]["reuse"]
        assert reuse["linked"] > 0
        assert reuse["records"] > 0
        assert result.epochs[1].personas_recomputed == 3

    def test_identical_epochs_share_a_store_and_reuse_everything(self, tmp_path):
        spec = TimelineSpec(base=_base(), epochs=(EpochSpec(), EpochSpec()))
        result = run_timeline(spec, tmp_path)
        assert result.epochs[1].personas_recomputed == 0
        assert result.epochs[1].personas_reused == len(scaled_roster(1))
        assert result.epochs[0].campaign_dir == result.epochs[1].campaign_dir


class TestDeltaReport:
    @pytest.fixture(scope="class")
    def timeline_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("delta")
        result = run_timeline(_spec(_base()), out)
        return out, result

    def test_delta_written_and_round_trips(self, timeline_out):
        out, result = timeline_out
        path = out / "delta-epoch00-to-epoch01.json"
        assert json.loads(path.read_text()) == result.deltas[0]

    def test_delta_sections(self, timeline_out):
        _, result = timeline_out
        delta = result.deltas[0]
        assert delta["epochs"] == {"previous": 0, "current": 1}
        assert set(delta["tracker_domains"]) == {
            "previous_total",
            "current_total",
            "new",
            "vanished",
        }
        assert delta["seasonality"]["previous"]["day0_in_holiday_window"]
        # Every persona with bids appears in the bid deltas; the drifted
        # personas' means moved, so at least one delta is nonzero-keyed.
        assert "dating" in delta["bid_deltas"]
        assert {"mean_cpm_previous", "mean_cpm_current", "delta"} <= set(
            delta["bid_deltas"]["dating"]
        )

    def test_unmutated_epochs_produce_an_empty_delta(self, tmp_path):
        spec = TimelineSpec(base=_base(), epochs=(EpochSpec(), EpochSpec()))
        result = run_timeline(spec, tmp_path)
        delta = result.deltas[0]
        assert delta["tracker_domains"]["new"] == []
        assert delta["tracker_domains"]["vanished"] == []
        assert delta["policy_regressions"] == []
        assert all(
            cell["delta"] == 0.0 for cell in delta["bid_deltas"].values()
        )


class TestShardInvariance:
    """Epoch mutations are shard-invariant: the dirty set computes the
    same bytes no matter how it is split across workers."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50))
    def test_serial_and_sharded_dirty_sets_agree(self, tmp_path_factory, seed):
        base_serial = CampaignSpec(config=_config(), seed=seed, store="segments")
        base_sharded = base_serial.replace(parallel=True, workers=4)
        spec_serial = TimelineSpec.generate(base_serial, n_epochs=2)
        spec_sharded = TimelineSpec.generate(base_sharded, n_epochs=2)
        # Same seed -> same generated mutations; only execution differs.
        assert spec_serial.epochs == spec_sharded.epochs
        out_a = tmp_path_factory.mktemp(f"ser-{seed}")
        out_b = tmp_path_factory.mktemp(f"shard-{seed}")
        run_timeline(spec_serial, out_a)
        run_timeline(spec_sharded, out_b)
        for index in (0, 1):
            assert _epoch_digests(out_a, index) == _epoch_digests(out_b, index)
