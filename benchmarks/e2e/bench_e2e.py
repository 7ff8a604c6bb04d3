"""End-to-end campaign benchmark: whole campaigns through the public
entry point, every export checked against committed digests.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat K] [--out results.json]
    python3 benchmarks/e2e/bench_e2e.py --update-expected [--workload NAME ...]

Load shape: a closed loop with one client.  This process keeps one warm
interpreter per workload (``worker.py serve``) and sends it "run once"
commands, round-robin across the selected workloads, so exactly one
execution runs at a time.  After one untimed warm-up execution per
workload, it measures each workload for ``--seconds`` of execution time.
Only ``segments-sharded`` forks, into its own 2 workers.

Executions draw their campaign seeds from a fixed panel, :data:`PANEL`,
in an order shuffled by ``--seed`` (see :func:`schedule`).  The seed
changes the simulated world and with it the work, so a run spreads its
executions over many campaigns.  ``--trace 0`` (the default) reports the
end-to-end metrics declared in ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced executions of the order's first campaign
instead, and reports the per-layer metrics of the traced ones (see
``tracing.py``); their spans go to ``.work/trace.json``.

Every output line is ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  An execution
fails if it raises or if any export file's sha256 differs from the
committed ``expected/<workload>.json`` entry of its campaign seed.
``--update-expected`` rewrites those files from one execution of every
panel seed.  The exit code is 1 if any execution failed, and 2 (with no
JSON line) if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_DIR = HERE / "expected"
WORK_ROOT = HERE / ".work"
WORKLOADS = ("crawl-small", "interact-faulted", "segments-sharded")
#: Campaign seeds with committed export digests, starting at the CLI's
#: default.  A run covers a quarter (``segments-sharded``) to a half of
#: them, so runs with different ``--seed`` share much of their work.
PANEL = tuple(range(42, 58))
#: Fresh interpreters timed per workload for ``setup_s``, spread evenly
#: over the measuring window so that one slow spell of the machine does
#: not take them all.
SETUP_PROBES = 3
#: Nominal CPU time of ``worker.probe_task``: the timing metrics are
#: reported in seconds of a host that runs it this fast (see
#: :func:`e2e_metrics`).
PROBE_S = 0.00025
#: Longest wait for one reply from a workload interpreter.
REPLY_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "personas_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "raw_wall_s": "s",
    "host.probe_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed execution)."""


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Temporary files (the shard supervisor's journal) stay in the work dir.
    env["TMPDIR"] = str(workdir)
    # One fixed string-hash seed: set and dict layouts, and the work they
    # cost, repeat from run to run.  Exports do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One warm workload interpreter and its line protocol."""

    def __init__(self, workload: str, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", workload, str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=worker_env(workdir),
            # Its own process group, so a kill also reaches forked shard workers.
            start_new_session=True,
        )
        try:
            self.personas = self._read()["personas"]
        except BenchError:
            self.close()
            raise

    def request(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"workload interpreter for {self.workload} stopped answering")
        return json.loads(line)

    def close(self) -> None:
        """End of input stops the interpreter; one that hangs is killed."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def probe_setup(workload: str, seed: int, workdir: Path) -> Tuple[float, float]:
    """Set-up time of a fresh interpreter, and the host's speed meanwhile."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "probe", workload, str(seed)],
        capture_output=True,
        text=True,
        env=worker_env(workdir),
        timeout=REPLY_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe for {workload} failed:\n{done.stderr}")
    setup, probe = done.stdout.split()[-2:]
    return float(setup), float(probe)


def schedule(seed: int, trace: bool) -> Tuple[int, Iterator[Tuple[int, bool, bool]]]:
    """The warm-up's campaign seed, and ``(campaign seed, traced, may stop
    after)`` for each timed execution.

    ``seed`` shuffles :data:`PANEL`.  Untraced runs cycle through the
    shuffled panel.  Traced runs alternate untraced and traced executions
    of its first campaign, so their per-layer counts repeat exactly, and
    stop only after a traced one.
    """
    order = random.Random(seed).sample(PANEL, len(PANEL))
    if trace:
        return order[0], itertools.cycle([(order[0], False, False), (order[0], True, True)])
    return order[0], ((campaign, False, True) for campaign in itertools.cycle(order))


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


class DigestCheck:
    """Compares each execution's export digests with the committed ones."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.expected = json.loads(expected_path(workload).read_text(encoding="utf-8"))

    def passes(self, seed: int, reply: dict) -> bool:
        if not reply["ok"]:
            print(reply["error"], file=sys.stderr)
            return False
        digests, expected = reply["digests"], self.expected.get(str(seed), {})
        changed = sorted(
            name for name in set(digests) | set(expected) if digests.get(name) != expected.get(name)
        )
        if changed:
            print(f"{self.workload} seed {seed}: export digests differ: {changed}", file=sys.stderr)
        return not changed


@dataclass
class Samples:
    """Everything measured for one workload in one pass."""

    personas: int
    walls: List[float] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    #: Mean probe time during each untraced execution and each set-up,
    #: in step with ``walls`` and ``setup``.
    wall_probe_s: List[float] = field(default_factory=list)
    setup_probe_s: List[float] = field(default_factory=list)
    rss: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def extend(self, other: "Samples") -> None:
        for name in ("walls", "traced_walls", "layers", "setup", "wall_probe_s", "setup_probe_s", "rss"):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted
        self.failed += other.failed


def probes_due(measured: float, seconds: float) -> int:
    """Set-up probes owed after ``measured`` seconds of a ``seconds``
    window: one at its start, the rest evenly spread, all by its end."""
    if measured >= seconds:
        return SETUP_PROBES
    return min(SETUP_PROBES, 1 + int(SETUP_PROBES * measured / seconds))


def run_pass(workloads, seed: int, seconds: float, trace: bool, workdir: Path):
    """One warm-up and one measuring window per workload, round-robin."""
    samples = {}
    checks = {name: DigestCheck(name) for name in workloads}
    workers: Dict[str, Worker] = {}
    try:
        for name in workloads:
            workers[name] = Worker(name, workdir / name)
            samples[name] = Samples(personas=workers[name].personas)

        def execute(name: str, campaign: int, traced: bool) -> dict:
            reply = workers[name].request(cmd="run", seed=campaign, trace=traced)
            samples[name].attempted += 1
            if not checks[name].passes(campaign, reply):
                samples[name].failed += 1
            return reply

        plans = {}
        for name in workloads:
            warm_up, plans[name] = schedule(seed, trace)
            execute(name, warm_up, traced=False)  # caches filled, not timed
        measured = dict.fromkeys(workloads, 0.0)
        pending = list(workloads)
        while pending:
            for name in list(pending):
                s = samples[name]
                campaign, traced, may_stop = next(plans[name])
                reply = execute(name, campaign, traced)
                measured[name] += reply["wall_s"]
                if traced:
                    s.traced_walls.append(reply["wall_s"])
                    if "layers" in reply:
                        s.layers.append(reply["layers"])
                else:
                    s.walls.append(reply["wall_s"])
                    s.wall_probe_s.append(reply["probe_s"])
                    while len(s.setup) < probes_due(measured[name], seconds):
                        setup, probe = probe_setup(name, campaign, workdir)
                        s.setup.append(setup)
                        s.setup_probe_s.append(probe)
                if may_stop and measured[name] >= seconds:
                    pending.remove(name)
        for name in workloads:
            if trace:
                workers[name].request(cmd="spans")
            samples[name].rss.append(workers[name].request(cmd="rss")["peak_rss_mb"])
    finally:
        for worker in workers.values():
            worker.close()
    return samples


def update_expected(workloads, workdir: Path) -> None:
    """Rewrite ``expected/<workload>.json`` from one execution per panel seed."""
    for name in workloads:
        worker = Worker(name, workdir / name)
        try:
            expected = {}
            for seed in PANEL:
                reply = worker.request(cmd="run", seed=seed, trace=False)
                if not reply["ok"]:
                    raise BenchError(f"{name} seed {seed} failed:\n{reply['error']}")
                expected[str(seed)] = reply["digests"]
        finally:
            worker.close()
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        expected_path(name).write_text(text, encoding="utf-8")
        print(f"# wrote {expected_path(name).relative_to(ROOT)}: {len(PANEL)} seeds")


def describe(values: List[float]) -> dict:
    """Median, quartiles, max and count of one metric's samples.  A count's
    median is one of its samples, so a count that repeats stays whole."""
    counts = all(isinstance(value, int) for value in values)
    median = statistics.median_low if counts else statistics.median
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "value": median(values),
        "n": len(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "max": max(values),
    }


def e2e_metrics(s: Samples) -> Dict[str, dict]:
    """The end-to-end metrics, their times scaled to the reference host.

    The shared host's speed changes by up to half within seconds, and
    the program and the probe task slow down together.  Each execution's
    and each set-up's time is multiplied by ``PROBE_S`` over the mean
    probe time sampled while it ran, so that times taken at different
    host speeds compare.  ``raw_wall_s`` and ``host.probe_s`` keep what
    was measured.
    """

    def scaled(times: List[float], probes: List[float]) -> List[float]:
        return [t * PROBE_S / probe for t, probe in zip(times, probes)]

    walls = scaled(s.walls, s.wall_probe_s)
    metrics = {
        "setup_s": describe(scaled(s.setup, s.setup_probe_s)),
        "wall_s": describe(walls),
        "personas_per_s": describe([s.personas / wall for wall in walls]),
        "peak_rss_mb": describe(s.rss),
        "fail_ratio": {"value": s.failed / s.attempted, "n": s.attempted},
        "raw_wall_s": describe(s.walls),
        "host.probe_s": describe(s.wall_probe_s),
    }
    for name, metric in metrics.items():
        metric["unit"] = E2E_UNITS[name]
    return metrics


def layer_metrics(s: Samples) -> Dict[str, dict]:
    from tracing import metric_unit

    metrics = {}
    if s.layers:
        for name in s.layers[0]:
            metrics[name] = describe([layers[name] for layers in s.layers])
            metrics[name]["unit"] = metric_unit(name)
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(s.traced_walls) / statistics.median(s.walls),
        "unit": "ratio",
    }
    return metrics


def print_metrics(workload: str, s: Samples, metrics: Dict[str, dict]) -> None:
    print(f"# {workload}: {s.attempted} executions, {s.failed} failed")
    traced_wall = metrics.get("trace.wall_s", {}).get("value")
    for name, m in metrics.items():
        line = f"{name} {m['value']:.6g} {m['unit']}"
        if "q1" in m:
            line += f"  (n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g} max={m['max']:.6g})"
        if traced_wall and name.endswith("_s") and not name.startswith("trace."):
            line += f"  [{100 * m['value'] / traced_wall:.1f}% of traced wall]"
        print(line)


def write_trace(workloads, workdir: Path) -> Path:
    """Merge every workload's spans into one ``trace.json``."""
    spans: List[dict] = []
    for name in workloads:
        path = workdir / name / "trace-spans.json"
        if not path.exists():
            continue
        base = len(spans)
        for span in json.loads(path.read_text(encoding="utf-8")):
            if span["parent"] is not None:
                span["parent"] += base
            spans.append(span)
    out = WORK_ROOT / "trace.json"
    out.write_text(json.dumps({"spans": spans}), encoding="utf-8")
    return out


def compare_repeats(passes, bounds: Dict[str, dict]) -> None:
    """Print, per workload and metric, how far each repeat's median is from
    the first repeat's, in the metric's worse direction, beside its bound."""
    print("# repeat check: (median_k - median_1) / median_1, worse direction positive")
    for workload in passes[0]:
        for name, spec in bounds.items():
            medians = [p[workload][name]["value"] for p in passes]
            sign = 1 if spec["better"] == "lower" else -1
            worst = max(sign * (m - medians[0]) / medians[0] for m in medians[1:])
            verdict = "ok" if worst <= spec["bound"] else "OVER BOUND"
            print(
                f"{workload} {name} medians={[round(m, 6) for m in medians]} "
                f"drift={worst:+.3%} bound={spec['bound']:.0%} {verdict}"
            )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="measuring window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="run the whole benchmark K times")
    parser.add_argument("--out", type=Path, help="write every metric with n, quartiles and max here")
    parser.add_argument(
        "--update-expected", action="store_true", help="rewrite the panel's digests; measure nothing"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    decl = declaration()
    workloads = tuple(args.workload or WORKLOADS)
    seconds = decl["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    declared = decl["per_layer"] if trace else decl["end_to_end"]
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    passes, pooled = [], {}
    try:
        if args.update_expected:
            update_expected(workloads, workdir)
            return 0
        for _ in range(args.repeat):
            shutil.rmtree(workdir, ignore_errors=True)
            samples = run_pass(workloads, args.seed, seconds, trace, workdir)
            summary = {}
            for name, s in samples.items():
                summary[name] = layer_metrics(s) if trace else e2e_metrics(s)
                pooled.setdefault(name, Samples(personas=s.personas)).extend(s)
            passes.append(summary)
            if trace:
                print(f"# spans written to {write_trace(workloads, workdir).relative_to(ROOT)}")
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = {name: layer_metrics(s) if trace else e2e_metrics(s) for name, s in pooled.items()}
    for name, s in pooled.items():
        print_metrics(name, s, final[name])
    if len(passes) > 1 and not trace:
        compare_repeats(passes, {m["name"]: m for m in decl["end_to_end"]})
    if args.out is not None:
        report = {
            "seed": args.seed,
            "seconds": seconds,
            "trace": trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "passes": passes,
            "pooled": final,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    attempted = sum(s.attempted for s in pooled.values())
    failed = sum(s.failed for s in pooled.values())

    def entry(m: dict) -> dict:
        return {"value": m["value"], "unit": m["unit"]}

    if len(workloads) == 1:
        metrics = {d["name"]: entry(final[workloads[0]][d["name"]]) for d in declared}
    else:
        metrics = {f"{w}/{d['name']}": entry(final[w][d["name"]]) for w in workloads for d in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
