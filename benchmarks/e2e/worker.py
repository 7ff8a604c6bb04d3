"""One benchmark workload in its own warm interpreter.

Started by ``bench_e2e.py``, never by hand.  Two modes:

``worker.py serve WORKLOAD WORKDIR``
    Import ``repro``, load the workload spec, then answer one JSON
    command per stdin line with one JSON line on stdout:

    * ``{"cmd": "run", "seed": 42, "trace": false}`` — one execution of
      the spec with that campaign seed, into fresh output and store
      directories.  Replies with its wall time, the host's speed while
      it ran (see :class:`HostSpeed`), and the sha256 of every export
      file.  A traced execution replies with its per-layer metrics
      instead of the host's speed.
    * ``{"cmd": "spans"}`` — write the last traced execution's spans to
      ``WORKDIR/trace-spans.json``.
    * ``{"cmd": "rss"}`` — peak RSS in MB of this process and of its
      reaped children (the forked segment workers).

``worker.py probe WORKLOAD SEED``
    Time one cold set-up in this fresh interpreter: import ``repro``,
    load and validate the workload spec, build the world once.  Prints
    that time and the host's speed while it ran, in seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS_DIR = HERE / "workloads"
#: The segment store's directory inside an export tree: the store is an
#: implementation detail, not an export, so it is never digested.
STORE_DIR_NAME = "_segments"
#: Wall time between two host-speed probes: 20 a second, each about a
#: third of a millisecond.
PROBE_INTERVAL_S = 0.05


def load_spec(workload: str, seed: int):
    """The workload's ``CampaignSpec`` with its seed replaced."""
    from repro import CampaignSpec

    text = (WORKLOADS_DIR / f"{workload}.json").read_text(encoding="utf-8")
    return CampaignSpec.from_json(text).replace(seed=seed)


def roster_size(spec) -> int:
    """Personas one execution delivers."""
    from repro.core.personas import scaled_roster

    return len(scaled_roster(spec.config.roster_scale))


def export_digests(out: Path) -> dict:
    """sha256 of every export file under ``out``, keyed by relative path."""
    digests = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if path.is_file() and rel.parts[0] != STORE_DIR_NAME:
            digests[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def execute(spec, out: Path) -> None:
    """One end-to-end execution through the public entry point."""
    from repro import execute_spec

    execute_spec(spec, out)


_PROBE_TABLE: dict = {}


def probe_task() -> None:
    """A fixed sliver of interpreter work: string formatting and dict
    updates.  It uses nothing from ``repro`` and allocates no container,
    so its cost changes with the host's speed and never with the program
    it interrupts."""
    table = _PROBE_TABLE
    for i in range(600):
        key = "k%d" % (i & 63)
        table[key] = (table.get(key, 0) + i) & 0xFFFF


class HostSpeed:
    """Samples the host's speed while the program runs.

    Every ``PROBE_INTERVAL_S`` of wall time, a ``SIGALRM`` handler runs
    :func:`probe_task` in this interpreter, between two bytecodes of the
    program, and records its CPU time.  Their mean over an execution
    measures the host's speed during exactly that execution.  CPU time, not wall
    time, so that a probe that waits for a core taken by the program's
    own shard workers does not count the wait.
    """

    def __init__(self) -> None:
        self.samples: list = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        probe_task()
        self.samples.append(time.thread_time() - started)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the mean probe time since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        return statistics.fmean(self.samples)


def probe(workload: str, seed: int) -> Tuple[float, float]:
    """One cold set-up, and the mean probe time while it ran."""
    speed = HostSpeed()
    speed.start()
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.world import build_config_world
    from repro.util.rng import Seed

    spec = load_spec(workload, seed)
    build_config_world(Seed(seed), spec.config)
    setup = time.perf_counter() - started
    return setup, speed.stop()


class Server:
    def __init__(self, workload: str, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.reps = 0
        self.spans = []
        self.speed = HostSpeed()

    def run(self, seed: int, traced: bool) -> dict:
        self.reps += 1
        spec = load_spec(self.workload, seed)
        out = self.workdir / f"rep-{self.reps}"
        gc.collect()
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer(self.workdir / f"dump-{self.reps}")
            tracer.dump_dir.mkdir()
            tracer.install()
        else:
            self.speed.start()
        reply = {"ok": True}
        started = time.perf_counter()
        try:
            execute(spec, out)
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc()}
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        else:
            reply["probe_s"] = self.speed.stop()
        reply["wall_s"] = wall
        if reply["ok"]:
            reply["digests"] = export_digests(out)
            if tracer is not None:
                workers = tracer.load_workers()
                reply["layers"] = tracer.layer_metrics(wall, workers)
                self.spans = tracer.span_records(self.workload, workers)
        if tracer is not None:
            shutil.rmtree(tracer.dump_dir)
        shutil.rmtree(out, ignore_errors=True)
        return reply

    def write_spans(self) -> dict:
        path = self.workdir / "trace-spans.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        return {}

    def rss(self) -> dict:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {"peak_rss_mb": peak_kb / 1024.0}


def serve(workload: str, workdir: Path) -> None:
    # Keep stdout for the protocol; anything the program prints goes to
    # stderr instead.
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    server = Server(workload, workdir)
    personas = roster_size(load_spec(workload, seed=0))
    channel.write(json.dumps({"personas": personas}) + "\n")
    channel.flush()
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "run":
            reply = server.run(int(command["seed"]), bool(command["trace"]))
        elif command["cmd"] == "spans":
            reply = server.write_spans()
        elif command["cmd"] == "rss":
            reply = server.rss()
        else:
            raise ValueError(f"unknown command: {command!r}")
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


def main(argv) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "probe":
        setup, probe_s = probe(workload, int(argv[2]))
        print(repr(setup), repr(probe_s))
    else:
        serve(workload, Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
