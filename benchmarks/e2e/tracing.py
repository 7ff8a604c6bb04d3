"""Per-layer tracing installed from outside the program.

The benchmark times each layer by wrapping that layer's public functions
at run time; nothing under ``src/`` knows it is being traced.  A wrapped
call is either

* a **span** — pushed on a stack, so its *self time* is its duration
  minus the time spent in nested spans — or
* a **counter** — a call count only, for functions called so often
  (``urlsplit``, ``derive_seed_int``) that a span would distort them.

Module-level functions are patched in every ``repro`` module that bound
them by name (``from repro.core.world import build_config_world``), so
callers that imported the name see the wrapper too.  Segment workers are
forked from the traced process and inherit the patches; the wrapper
around :func:`repro.core.segments.run_segment_shard` resets the forked
copy of the accumulator on entry and dumps the worker's totals to
``<dump_dir>/worker-<pid>.json`` before it returns, for
:meth:`Tracer.layer_metrics` to merge.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, defining module, attribute path).  Several functions may
#: share one span name when they do the same job on different stores.
SPANS = (
    ("core.world.build", "repro.core.world", "build_config_world"),
    ("core.experiment.run", "repro.core.experiment", "ExperimentRunner.run"),
    ("web.openwpm.discover", "repro.web.openwpm", "discover_prebid_sites"),
    ("web.openwpm.crawl", "repro.web.openwpm", "OpenWPMCrawler.crawl_iteration"),
    ("adtech.prebid.auction", "repro.adtech.prebid", "PrebidSession.request_bids"),
    ("web.browser.get", "repro.web.browser", "Browser.get"),
    ("web.browser.universe.handle", "repro.web.browser", "WebUniverse.handle"),
    ("netsim.router.send", "repro.netsim.router", "Router.send"),
    ("alexa.device.session", "repro.alexa.device", "EchoDevice.run_skill_session"),
    ("alexa.device.sync", "repro.alexa.device", "EchoDevice.background_sync"),
    ("alexa.dsar.request", "repro.alexa.dsar", "DataRequestPortal.request_data"),
    ("adtech.audio.stream", "repro.adtech.audio", "AudioAdServer.stream"),
    ("core.segments.flatten", "repro.core.segments", "persona_stream_records"),
    ("core.segments.write_batch", "repro.core.segments", "SegmentStore.write_batch"),
    (
        "core.segments.point_read",
        "repro.core.segments",
        "SegmentStore.stream_records_for",
    ),
    ("core.checkpoint.write", "repro.core.checkpoint", "atomic_write_bytes"),
    ("core.parallel.positions", "repro.core.campaign", "run_segment_positions"),
    ("core.parallel.shard", "repro.core.segments", "run_segment_shard"),
    ("core.export.export", "repro.core.export", "export_dataset"),
    ("core.export.export", "repro.core.export", "export_segment_store"),
    ("core.export.summary", "repro.core.export", "export_summary"),
    ("core.export.summary", "repro.core.export", "summarize_segment_store"),
)

#: (counter name, defining module, attribute path).
COUNTERS = (
    ("netsim.http.url_parses", "urllib.parse", "urlsplit"),
    ("util.rng.seed_derivations", "repro.util.rng", "derive_seed_int"),
    ("core.checkpoint.fsyncs", "os", "fsync"),
    ("netsim.faults.decisions", "repro.netsim.faults", "FaultPlan.decide"),
)

#: Modules imported before patching, so every by-name binding exists.
_PRELOAD = (
    "repro.core",
    "repro.core.campaign",
    "repro.core.export",
    "repro.core.segments",
    "repro.web",
)

#: ``ExperimentRunner`` phase names, in campaign order.
PHASES = (
    "setup",
    "discovery",
    "pre_crawls",
    "install",
    "dsar",
    "interaction_wave_1",
    "post_crawls",
    "audio",
    "interaction_wave_2",
    "policies",
)


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    """The object owning ``path``'s last attribute, and that attribute."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Stack-based self-time accumulator for one process.

    One tracer serves one traced execution: ``install()`` patches every
    target and ``uninstall()`` restores the originals, so untraced
    executions in the same process run the unmodified program.  A forked
    segment worker calls :meth:`reset` to drop the state it copied from
    its parent.
    """

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------------ #
    # Accumulation
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        self.pid = os.getpid()
        self._stack: List[list] = []
        #: ``[name, parent index, start, end]`` per span, in start order.
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.values: Dict[str, float] = defaultdict(float)
        self._gc_started: Optional[float] = None

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else None
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, parent, start, None])
        self._stack.append([name, start, 0.0, index])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.spans[index][3] = end
        self.self_s[name] += duration - child
        self.busy_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _shard(self, fn: Callable) -> Callable:
        """``run_segment_shard`` runs in a forked worker: start that
        worker's accumulation from zero and dump it before returning."""
        span = self._span("core.parallel.shard", fn, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            forked = os.getpid() != self.pid
            if forked:
                self.reset()
            result = span(*args, **kwargs)
            if forked:
                self.dump_worker()
            return result

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.values["python.gc.gc_s"] += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.counters["python.gc.gen2_collections"] += 1

    # Post-call hooks: derive counts from arguments and results.

    def _after_run(self, dataset, args) -> None:
        for phase, seconds in dataset.timings.items():
            if phase != "total":
                self.values[f"core.experiment.{phase}_s"] += seconds

    def _after_write(self, result, args) -> None:
        self.counters["core.checkpoint.bytes_written"] += len(args[1])

    def _after_export(self, counts, args) -> None:
        self.counters["core.export.rows"] += sum(counts.values())

    def _after_decide(self, decision, args) -> None:
        if decision is not None:
            self.counters["netsim.faults.injected"] += 1

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        for name in _PRELOAD:
            importlib.import_module(name)
        after = {
            "ExperimentRunner.run": self._after_run,
            "atomic_write_bytes": self._after_write,
            "export_dataset": self._after_export,
            "export_segment_store": self._after_export,
            "FaultPlan.decide": self._after_decide,
        }
        for name, module, path in SPANS:
            if path == "run_segment_shard":
                self._patch(module, path, self._shard)
            else:
                hook = after.get(path)
                self._patch(module, path, lambda fn, n=name, h=hook: self._span(n, fn, h))
        for name, module, path in COUNTERS:
            hook = after.get(path)
            self._patch(module, path, lambda fn, n=name, h=hook: self._counter(n, fn, h))
        gc.callbacks.append(self._gc_callback)

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            # Every module that bound the function by name, plus its home.
            targets = [owner] + [
                module
                for mod_name, module in list(sys.modules.items())
                if module is not owner
                and (mod_name == "repro" or mod_name.startswith("repro."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Worker dumps
    # ------------------------------------------------------------------ #

    def _totals(self) -> dict:
        return {
            "pid": self.pid,
            "self_s": dict(self.self_s),
            "busy_s": dict(self.busy_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "values": dict(self.values),
        }

    def dump_worker(self) -> None:
        payload = self._totals()
        payload["spans"] = self.spans
        path = self.dump_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

    def load_workers(self) -> List[dict]:
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(self.dump_dir.glob("worker-*.json"))
        ]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def layer_metrics(self, traced_wall: float, workers: List[dict]) -> Dict[str, float]:
        """Every per-layer metric of one traced execution.

        Self times, call counts and counters are summed over this
        process and its segment workers.  ``trace.unattributed_s`` is
        this process only: the traced wall time not inside any span
        (a segment worker's time is covered here by the
        ``core.parallel.positions`` span that waits for it).
        """
        main = self._totals()
        unattributed = traced_wall - sum(main["self_s"].values())
        total = {key: Counter() for key in ("self_s", "calls", "counters", "values")}
        for part in [main] + workers:
            for key in total:
                total[key].update(part[key])
        self_s, calls = total["self_s"], total["calls"]
        counters, values = total["counters"], total["values"]
        shard_busy = [
            part["busy_s"]["core.parallel.shard"]
            for part in workers
            if "core.parallel.shard" in part["busy_s"]
        ]
        requests = calls["web.browser.get"] + calls["netsim.router.send"]
        return {
            "core.world.builds": calls["core.world.build"],
            "core.world.build_s": self_s["core.world.build"],
            "web.openwpm.iterations": calls["web.openwpm.crawl"],
            "web.openwpm.crawl_self_s": self_s["web.openwpm.crawl"],
            "web.openwpm.discover_s": self_s["web.openwpm.discover"],
            "adtech.prebid.auctions": calls["adtech.prebid.auction"],
            "adtech.prebid.auction_self_s": self_s["adtech.prebid.auction"],
            "web.browser.requests": calls["web.browser.get"],
            "web.browser.get_self_s": self_s["web.browser.get"],
            "web.browser.universe.handles": calls["web.browser.universe.handle"],
            "web.browser.universe.handle_self_s": self_s["web.browser.universe.handle"],
            "netsim.router.requests": calls["netsim.router.send"],
            "netsim.router.send_self_s": self_s["netsim.router.send"],
            "netsim.http.url_parses": counters["netsim.http.url_parses"],
            "netsim.http.parses_per_request": (
                counters["netsim.http.url_parses"] / requests if requests else 0.0
            ),
            "util.rng.seed_derivations": counters["util.rng.seed_derivations"],
            "netsim.faults.decisions": counters["netsim.faults.decisions"],
            "netsim.faults.injected": counters["netsim.faults.injected"],
            "alexa.device.sessions": calls["alexa.device.session"],
            "alexa.device.session_self_s": self_s["alexa.device.session"],
            "alexa.device.sync_self_s": self_s["alexa.device.sync"],
            "alexa.dsar.request_s": self_s["alexa.dsar.request"],
            "adtech.audio.stream_s": self_s["adtech.audio.stream"],
            "core.experiment.run_self_s": self_s["core.experiment.run"],
            **{
                f"core.experiment.{phase}_s": values[f"core.experiment.{phase}_s"]
                for phase in PHASES
            },
            "core.segments.batches_written": calls["core.segments.write_batch"],
            "core.segments.flatten_s": self_s["core.segments.flatten"],
            "core.segments.write_batch_s": self_s["core.segments.write_batch"],
            "core.segments.point_read_s": self_s["core.segments.point_read"],
            "core.checkpoint.atomic_writes": calls["core.checkpoint.write"],
            "core.checkpoint.write_s": self_s["core.checkpoint.write"],
            "core.checkpoint.bytes_written": counters["core.checkpoint.bytes_written"],
            "core.checkpoint.fsyncs": counters["core.checkpoint.fsyncs"],
            "core.parallel.positions_self_s": self_s["core.parallel.positions"],
            "core.parallel.shard_s": sum(shard_busy),
            "core.parallel.shard_imbalance": (
                max(shard_busy) / statistics.fmean(shard_busy) if shard_busy else 0.0
            ),
            "core.parallel.overhead_s": (
                main["busy_s"].get("core.parallel.positions", 0.0) - max(shard_busy)
                if shard_busy
                else 0.0
            ),
            "core.export.rows": counters["core.export.rows"],
            "core.export.export_s": self_s["core.export.export"],
            "core.export.summary_s": self_s["core.export.summary"],
            "python.gc.gen2_collections": counters["python.gc.gen2_collections"],
            "python.gc.gc_s": values["python.gc.gc_s"],
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": unattributed,
        }

    def span_records(self, workload: str, workers: List[dict]) -> List[dict]:
        """Every span of this process and its workers, parents as indices
        into the returned list, times relative to the first span."""
        parts = [(self.pid, self.spans)] + [(w["pid"], w["spans"]) for w in workers]
        origin = min((spans[0][2] for _, spans in parts if spans), default=0.0)
        records: List[dict] = []
        for pid, spans in parts:
            base = len(records)
            for name, parent, start, end in spans:
                records.append(
                    {
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": None if parent is None else base + parent,
                        "workload": workload,
                        "pid": pid,
                    }
                )
        return records


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_imbalance", "_per_request")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
