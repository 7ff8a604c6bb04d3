"""Tests for results export and the CLI."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.core.campaign import CampaignSpec
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES, export_dataset, export_summary

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, small_dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("export")
        counts = export_dataset(small_dataset, out)
        return out, counts

    def test_all_files_written(self, exported):
        out, counts = exported
        for name in EXPORT_FILES:
            assert (out / name).exists(), name
            assert counts[name] >= 1

    def test_bids_csv_matches_dataset(self, exported, small_dataset):
        out, counts = exported
        expected = sum(len(a.bids) for a in small_dataset.personas.values())
        assert counts["bids.csv"] == expected
        with (out / "bids.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == expected
        assert float(rows[0]["cpm"]) > 0

    def test_sync_events_have_uids(self, exported):
        out, _ = exported
        with (out / "sync_events.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(r["uid"] for r in rows)

    def test_summary_json_structure(self, exported):
        out, _ = exported
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cookie_sync"]["amazon_outbound"] == 0
        assert "vanilla" in summary["bid_summaries"]
        assert summary["policy_availability"]["total_skills"] == 54

    def test_summary_function_direct(self, small_dataset):
        summary = export_summary(small_dataset)
        assert set(summary["significance_vs_vanilla"]) == {
            p.name
            for p in (a.persona for a in small_dataset.interest_personas)
        }

    def test_export_creates_directory(self, small_dataset, tmp_path):
        target = tmp_path / "nested" / "dir"
        export_dataset(small_dataset, target)
        assert (target / "summary.json").exists()


class TestCli:
    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_small_exports(self, tmp_path, capsys):
        # Use an even smaller footprint than --small via monkey knobs is
        # overkill; --small finishes in a few seconds.
        code = main(["run", "--small", "--seed", "7", "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "bids.csv").exists()
        assert "exported" in capsys.readouterr().out

    def test_run_segments_store_matches_memory(self, tmp_path, capsys):
        mem = tmp_path / "mem"
        seg = tmp_path / "seg"
        assert main(["run", "--small", "--seed", "7", "--out", str(mem)]) == 0
        code = main(
            [
                "run", "--small", "--seed", "7",
                "--store", "segments",
                "--store-dir", str(tmp_path / "store"),
                "--out", str(seg),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segment store" in out
        for name in sorted(p.name for p in mem.iterdir()):
            assert (mem / name).read_bytes() == (seg / name).read_bytes(), name

    def test_run_segments_rejects_cache_flag(self, tmp_path):
        """The dataset cache is gone, and so is its flag: the segment
        store is the one way to reuse a run."""
        self._assert_flags_rejected(tmp_path, ["--cache"])

    @pytest.mark.parametrize("flags", [["--checkpoint-dir", "ckpt"], ["--resume"]])
    def test_run_segments_rejects_journal_flags(self, tmp_path, flags):
        """The shard journal is gone, and so are its flags: the segment
        store is the one way to resume."""
        self._assert_flags_rejected(tmp_path, flags)

    @staticmethod
    def _assert_flags_rejected(tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--small", "--seed", "7"]
                + flags
                + ["--store", "segments", "--out", str(tmp_path / "x")]
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec_file", [False, True])
    def test_run_storage_faults_needs_segment_store(self, tmp_path, capsys, spec_file):
        """The memory store writes nothing, so storage faults cannot
        apply to it: one line naming --store segments, exit 2, nothing
        run and no plan left installed."""
        from repro.core.iosim import current_storage_faults

        if spec_file:
            spec = tmp_path / "spec.json"
            spec.write_text(CampaignSpec(config=TINY).to_json(), encoding="utf-8")
            campaign = ["--spec", str(spec)]
        else:
            campaign = ["--small", "--seed", "7"]
        out = tmp_path / "x"
        assert main(["run", *campaign, "--storage-faults", "mild", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert "--storage-faults" in line and "--store segments" in line
        assert not out.exists()
        assert current_storage_faults() is None

    def test_run_spec_storage_faults_follow_the_spec_seed(self, tmp_path, monkeypatch):
        """``--spec`` forbids ``--seed``, so the storage fault plan is
        drawn from the spec's seed: two specs that differ only in seed
        get different schedules, each the plan of its own seed."""
        import repro
        from repro.core.iosim import (
            StorageFaultPlan,
            current_storage_faults,
            uninstall_storage_faults,
        )

        class Ran(Exception):
            pass

        def execute_spec(spec, out):
            raise Ran(current_storage_faults())

        def schedule(plan):
            return [repr(plan.decide("segments", "segment")) for _ in range(300)]

        monkeypatch.setattr(repro, "execute_spec", execute_spec)
        schedules = []
        try:
            for seed in (7, 8):
                spec = tmp_path / f"spec-{seed}.json"
                spec.write_text(
                    CampaignSpec(config=TINY, seed=seed, store="segments").to_json(),
                    encoding="utf-8",
                )
                with pytest.raises(Ran) as ran:
                    main(["run", "--spec", str(spec), "--storage-faults", "harsh",
                          "--out", str(tmp_path / "x")])
                (plan,) = ran.value.args
                assert plan.seed.root == seed
                expected = StorageFaultPlan.from_profile("harsh", seed)
                schedules.append(schedule(plan))
                assert schedules[-1] == schedule(expected)
        finally:
            uninstall_storage_faults()
        assert schedules[0] != schedules[1]

    def test_tables_small(self, capsys):
        assert main(["tables", "--small", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Table 7" in out
        assert "partners syncing with Amazon" in out

    def test_defend(self, capsys):
        assert main(["defend", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "breakage rate" in out

    def test_sync_small(self, capsys):
        assert main(["sync", "--small", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "partners syncing with Amazon" in out

    def test_audio(self, capsys):
        assert main(["audio", "--hours", "0.5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Pandora" in out

    def test_policheck(self, capsys):
        assert main(["policheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 13" in out and "voice recording" in out
