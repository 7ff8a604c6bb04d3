"""Unit tests for CampaignSpec (repro.core.campaign): the serializable
campaign description shared by the Python API, the CLI, and the HTTP
service."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.campaign import (
    SPEC_SCHEMA_VERSION,
    STORES,
    CampaignSpec,
    execute_spec,
    run_campaign,
)
from repro.core.experiment import ExperimentConfig, config_fingerprint
from repro.core.export import EXPORT_FILES

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


class TestRoundTrip:
    def test_json_round_trip_is_exact(self):
        spec = CampaignSpec(
            config=TINY, seed=7, parallel=True, workers=3,
            on_shard_failure="degrade", shard_timeout=12.5,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_round_trip_defaults(self):
        spec = CampaignSpec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_round_trip_segments(self):
        spec = CampaignSpec(
            config=TINY, store="segments", store_dir="seg", batch_personas=4
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_carries_schema_version(self):
        assert CampaignSpec().to_dict()["schema"] == SPEC_SCHEMA_VERSION

    def test_config_survives_as_experiment_config(self):
        restored = CampaignSpec.from_json(CampaignSpec(config=TINY).to_json())
        assert isinstance(restored.config, ExperimentConfig)
        assert restored.config == TINY

    def test_replace_revalidates(self):
        spec = CampaignSpec(config=TINY)
        assert spec.replace(seed=9).seed == 9
        with pytest.raises(ValueError, match="workers requires parallel"):
            spec.replace(workers=4)


class TestFingerprint:
    def test_equal_specs_fingerprint_equal(self):
        a = CampaignSpec(config=TINY, seed=5)
        b = CampaignSpec.from_json(a.to_json())
        assert a.fingerprint() == b.fingerprint()

    def test_any_field_changes_fingerprint(self):
        base = CampaignSpec(config=TINY, seed=5)
        assert base.fingerprint() != base.replace(seed=6).fingerprint()
        assert (
            base.fingerprint()
            != base.replace(config=dataclasses.replace(TINY, crawl_sites=3)).fingerprint()
        )

    def test_fingerprint_stable_across_processes(self):
        """The service uses fingerprints as cross-process job identity."""
        spec = CampaignSpec(config=TINY, seed=11, parallel=True, workers=2)
        script = (
            "import sys, json\n"
            "from repro.core.campaign import CampaignSpec\n"
            "print(CampaignSpec.from_json(sys.stdin.read()).fingerprint())\n"
        )
        import os

        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
        )
        assert result.stdout.strip() == spec.fingerprint()


class TestConfigFingerprint:
    """``config_fingerprint`` keys segment stores and run manifests."""

    def test_stable_for_equal_configs(self):
        assert config_fingerprint(TINY) == config_fingerprint(
            dataclasses.replace(TINY)
        )

    def test_sensitive_to_every_field(self):
        base = config_fingerprint(TINY)
        changed = dataclasses.replace(TINY, second_interaction_wave=False)
        assert config_fingerprint(changed) != base


class TestValidation:
    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            CampaignSpec(config=TINY, parallel=True, backend="gpu")

    def test_removed_thread_backend_names_its_replacement(self):
        """Every surface that builds a spec fails the same way."""
        body = CampaignSpec(config=TINY, parallel=True).to_dict()
        body["backend"] = "thread"
        attempts = [
            lambda: CampaignSpec(config=TINY, parallel=True, backend=body["backend"]),
            lambda: CampaignSpec.from_dict(body),
            lambda: CampaignSpec.from_json(json.dumps(body)),
        ]
        messages = set()
        for attempt in attempts:
            with pytest.raises(ValueError) as excinfo:
                attempt()
            messages.add(str(excinfo.value))
        (message,) = messages
        assert "'thread'" in message
        assert '"process"' in message and "parallel=False" in message

    def test_golden_specs_round_trip_byte_identically(self):
        """The committed specs carry ``"backend": "process"`` and must
        keep loading and re-serializing to the same bytes."""
        from repro.core.timeline import TimelineSpec

        specs_dir = Path(__file__).resolve().parents[1] / "golden" / "specs"
        loaders = {
            "interact-faulted.json": CampaignSpec,
            "timeline-2epoch.json": TimelineSpec,
        }
        for name, loader in loaders.items():
            text = (specs_dir / name).read_text(encoding="utf-8")
            assert '"backend": "process"' in text
            spec = loader.from_json(text)
            assert spec.to_json(indent=2) + "\n" == text

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignSpec(config=TINY, parallel=True, workers=-1)

    def test_rejects_workers_without_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            CampaignSpec(config=TINY, workers=2)

    def test_rejects_bad_store(self):
        with pytest.raises(ValueError, match=str(STORES)[1:8]):
            CampaignSpec(config=TINY, store="tape")

    def test_rejects_supervisor_knobs_without_parallel(self):
        with pytest.raises(ValueError, match="parallel=True"):
            CampaignSpec(config=TINY, on_shard_failure="degrade")
        with pytest.raises(ValueError, match="parallel=True"):
            CampaignSpec(config=TINY, shard_timeout=5.0)

    def test_rejects_cache_with_parallel(self):
        with pytest.raises(ValueError, match="retired spec field"):
            CampaignSpec(config=TINY, parallel=True, cache="c")

    def test_rejects_cache_for_segments(self):
        with pytest.raises(ValueError, match="retired spec field"):
            CampaignSpec(config=TINY, store="segments", cache="c")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache", "/tmp/cache"),
            ("cache_copy", False),
            ("checkpoint_dir", "/tmp/ckpt"),
            ("resume", True),
        ],
    )
    def test_retired_durability_fields_name_their_replacement(self, field, value):
        """The dataset cache and the shard journal are gone: each of
        their schema-1 fields accepts only its default, and every
        surface that builds a spec fails with the same message."""
        body = CampaignSpec(config=TINY, parallel=True).to_dict()
        body[field] = value
        attempts = [
            lambda: CampaignSpec(config=TINY, parallel=True, **{field: value}),
            lambda: CampaignSpec.from_dict(body),
            lambda: CampaignSpec.from_json(json.dumps(body)),
        ]
        messages = set()
        for attempt in attempts:
            with pytest.raises(ValueError) as excinfo:
                attempt()
            messages.add(str(excinfo.value))
        (message,) = messages
        assert f"retired spec field(s) {field}:" in message
        assert 'store: "segments" plus store_dir' in message

    def test_rejects_batch_personas_for_memory(self):
        with pytest.raises(ValueError, match="batch_personas"):
            CampaignSpec(config=TINY, batch_personas=2)

    def test_rejects_unknown_top_level_field(self):
        payload = CampaignSpec(config=TINY).to_dict()
        payload["wrokers"] = 4
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            CampaignSpec.from_dict(payload)

    def test_rejects_unknown_config_field(self):
        payload = CampaignSpec(config=TINY).to_dict()
        payload["config"]["skillz"] = 1
        with pytest.raises(ValueError, match="unknown config fields"):
            CampaignSpec.from_dict(payload)

    def test_rejects_foreign_schema(self):
        payload = CampaignSpec(config=TINY).to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            CampaignSpec.from_dict(payload)

    def test_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")

    def test_rejects_path_objects_in_spec(self):
        with pytest.raises(TypeError, match="string path"):
            CampaignSpec(
                config=TINY, store="segments", store_dir=Path("x")  # type: ignore[arg-type]
            )


class TestSpecExecution:
    def test_spec_form_rejects_extra_kwargs(self):
        spec = CampaignSpec(config=TINY)
        with pytest.raises(TypeError, match="replace"):
            run_campaign(spec, parallel=True)
        with pytest.raises(TypeError, match="replace"):
            run_campaign(spec, 7)

    def test_spec_and_kwargs_forms_export_identically(self, tmp_path):
        spec = CampaignSpec(config=TINY, seed=31)
        counts, _ = execute_spec(spec, tmp_path / "spec")
        kwargs_dataset = run_campaign(TINY, 31)
        from repro.core.export import export_dataset

        kwargs_counts = export_dataset(kwargs_dataset, tmp_path / "kwargs")
        assert counts == kwargs_counts
        for name in EXPORT_FILES:
            assert (tmp_path / "spec" / name).read_bytes() == (
                tmp_path / "kwargs" / name
            ).read_bytes()

    def test_run_campaign_spec_returns_dataset_with_manifest(self):
        dataset = run_campaign(CampaignSpec(config=TINY, seed=13))
        assert dataset.obs is not None
        assert dataset.obs.manifest.entrypoint == "serial"
        assert dataset.obs.manifest.seed_root == 13

    def test_execute_spec_defaults_segment_store_dir(self, tmp_path):
        spec = CampaignSpec(config=TINY, seed=17, store="segments")
        counts, store = execute_spec(spec, tmp_path / "out")
        assert set(counts) == set(EXPORT_FILES)
        assert store.root == tmp_path / "out" / "_segments"
        assert store.status() == "complete"

    def test_segments_without_store_dir_needs_execute_spec(self):
        spec = CampaignSpec(config=TINY, store="segments")
        with pytest.raises(ValueError, match="execute_spec"):
            run_campaign(spec)


class TestCliRejectsInvalidSpecFiles:
    """``run --spec``, ``submit`` and ``timeline run --spec`` report an
    invalid document as one line and exit 2, like every other argument
    error: no traceback, and nothing runs or goes out."""

    @staticmethod
    def _documents(kind):
        if kind == "timeline":
            from repro.core.timeline import TimelineSpec

            base = CampaignSpec(config=TINY, store="segments")
            valid = TimelineSpec.generate(base).to_dict()
            thread = json.loads(json.dumps(valid))
            thread["base"]["backend"] = "thread"
        else:
            valid = CampaignSpec(config=TINY, parallel=True).to_dict()
            thread = dict(valid, backend="thread")
        return {"thread": (thread, "'thread'"), "unknown": (dict(valid, bogus=1), "bogus")}

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--spec", "{path}", "--out", "{out}"],
            ["submit", "{path}", "--url", "http://127.0.0.1:9"],
            ["timeline", "run", "--spec", "{path}", "--out", "{out}"],
        ],
        ids=["run", "submit", "timeline-run"],
    )
    @pytest.mark.parametrize("flaw", ["thread", "unknown"])
    def test_invalid_spec_is_one_line_and_exit_2(self, tmp_path, capsys, command, flaw):
        from repro.cli import main

        document, needle = self._documents(command[0])[flaw]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "out"
        argv = [arg.format(path=path, out=out) for arg in command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert line.startswith("invalid ") and str(path) in line and needle in line
        assert "Traceback" not in captured.err
        assert not out.exists()
