"""Self-test of the end-to-end benchmark; not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e -o addopts="" -q

It runs the benchmark itself with one measured execution per workload:
about four minutes on a 2-core machine.  It pins the benchmark's
contract (declared metric names and units, digest checks, exact counts)
but no counter's value, so a change that lowers a count needs no edit
here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def run_bench(*args, root=ROOT):
    """Run the benchmark from ``root``; return its exit code and JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--seconds", "0", *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def declared(section):
    return {f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in DECLARATION[section]}


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def e2e_run():
    return run_bench()


@pytest.fixture(scope="module")
def traced_runs():
    return [run_bench("--trace", "1") for _ in range(2)]


@pytest.fixture
def bench_copy(tmp_path):
    """The benchmark alone: ``BENCHMARK.json`` and its own directory."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    return tmp_path


def test_workload_list_matches_declaration():
    import bench_e2e

    assert tuple(WORKLOADS) == bench_e2e.WORKLOADS


def test_workload_specs_round_trip():
    from repro import CampaignSpec

    for name in WORKLOADS:
        text = (HERE / "workloads" / f"{name}.json").read_text(encoding="utf-8")
        spec = CampaignSpec.from_json(text)
        assert CampaignSpec.from_json(spec.to_json()) == spec
        assert spec.to_json(indent=2) + "\n" == text


def test_times_are_scaled_to_the_reference_host():
    import bench_e2e

    nominal = bench_e2e.PROBE_S
    # Each time is scaled by the host speed sampled while it ran: the
    # 4.0 s execution ran on a host twice as slow as the reference one.
    samples = bench_e2e.Samples(
        personas=10,
        walls=[3.0, 4.0, 2.5],
        wall_probe_s=[nominal, 2 * nominal, nominal],
        setup=[1.0, 1.2, 1.4],
        setup_probe_s=[nominal, 2 * nominal, 2 * nominal],
        rss=[100.0],
        attempted=3,
    )
    metrics = bench_e2e.e2e_metrics(samples)
    assert metrics["raw_wall_s"]["value"] == 3.0
    assert metrics["wall_s"]["value"] == pytest.approx(2.5)
    assert metrics["personas_per_s"]["value"] == pytest.approx(4.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.7)
    assert metrics["peak_rss_mb"]["value"] == 100.0


def test_every_panel_seed_has_committed_digests():
    import bench_e2e

    for name in WORKLOADS:
        expected = json.loads(bench_e2e.expected_path(name).read_text(encoding="utf-8"))
        assert sorted(expected) == sorted(str(seed) for seed in bench_e2e.PANEL)
        assert len({frozenset(files) for files in expected.values()}) == 1


def test_end_to_end_metrics_match_declaration(e2e_run):
    code, result = e2e_run
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(WORKLOADS)
    assert units(result) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_per_layer_metrics_match_declaration(traced_runs):
    for code, result in traced_runs:
        assert code == 0
        assert result["correct"]
        assert units(result) == declared("per_layer")


#: Counts that do not repeat by design.  Garbage-collector passes follow
#: allocation, not the program's work.  With two shard workers, each
#: segment-store scan also flushes the digest cache for whichever batches
#: the other worker has already published, so the sharded workload's
#: atomic writes, bytes and fsyncs depend on how the workers interleave.
NOT_REPEATABLE = ("/python.gc.", "segments-sharded/core.checkpoint.")


def test_per_layer_counts_repeat_exactly(traced_runs):
    (_, first), (_, second) = traced_runs
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "bytes")
        and not any(part in name for part in NOT_REPEATABLE)
    }
    assert counts["segments-sharded/netsim.http.url_parses"] > 0
    assert counts["interact-faulted/netsim.faults.injected"] > 0
    assert counts["segments-sharded/core.segments.batches_written"] > 0
    assert counts == {name: second["metrics"][name]["value"] for name in counts}


def test_traced_time_is_attributed_to_layers(traced_runs):
    for _, result in traced_runs:
        metrics = result["metrics"]
        for workload in WORKLOADS:
            wall = metrics[f"{workload}/trace.wall_s"]["value"]
            assert metrics[f"{workload}/trace.unattributed_s"]["value"] <= 0.1 * wall


def test_tampered_digest_fails_every_execution(bench_copy):
    (bench_copy / "src").symlink_to(ROOT / "src")
    expected = bench_copy / "benchmarks/e2e/expected/interact-faulted.json"
    payload = json.loads(expected.read_text(encoding="utf-8"))
    for files in payload.values():
        files["bids.csv"] = "0" * 64
    expected.write_text(json.dumps(payload), encoding="utf-8")
    out = bench_copy / "results.json"
    code, result = run_bench(
        "--workload", "interact-faulted", "--out", str(out), root=bench_copy
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    pooled = json.loads(out.read_text(encoding="utf-8"))["pooled"]
    assert pooled["interact-faulted"]["fail_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(bench_copy):
    code, result = run_bench("--workload", "interact-faulted", root=bench_copy)
    assert code != 0
    assert result is None
