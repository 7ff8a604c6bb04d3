"""The observability collector: one handle bundling tracer, metrics,
events, and manifest, plus the deterministic cross-shard merge.

Design rules
------------

* **World-free and picklable.**  A collector crosses the process
  boundary inside a :class:`~repro.core.parallel.ShardResult`; it must
  never hold service closures.  (A bound :class:`~repro.util.clock.SimClock`
  is a plain object and pickles fine.)
* **Null object, not ``if obs:``.**  Disabled observability is the
  :data:`NULL_OBS` singleton whose operations are no-ops, so
  instrumented code never branches — the <5 % overhead budget of
  ``bench_obs_overhead`` is met by making the disabled path a
  method call and the enabled path cheap.
* **Deterministic merge.**  :func:`merge_collectors` reassembles shard
  collectors into one whose *simulated-time span tree* is byte-identical
  to the serial run's for the same seed: structural spans (no
  ``persona`` attribute) must agree across shards and are kept once;
  persona spans are re-inserted in canonical roster order — the same
  order the serial runner visits them, because shards are contiguous
  roster slices.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = ["ObsCollector", "NullObs", "NULL_OBS", "merge_collectors"]


class ObsCollector:
    """Live observability state for one campaign (or one shard)."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock)
        self.manifest: Optional[RunManifest] = None

    def bind_clock(self, clock) -> None:
        """Attach the world clock all simulated timestamps read from."""
        self.tracer.bind_clock(clock)
        self.events.bind_clock(clock)

    # ------------------------------------------------------------------ #
    # Instrumentation surface (mirrored by NullObs)
    # ------------------------------------------------------------------ #

    def span(self, name: str, *, det: bool = False, **attrs: object):
        return self.tracer.span(name, det=det, **attrs)

    def inc(self, name: str, n: int = 1, merge: str = "sum") -> None:
        self.metrics.inc(name, n, merge)

    def gauge(self, name: str, value: float, merge: str = "max") -> None:
        self.metrics.set_gauge(name, value, merge)

    def event(self, event_type: str, **fields: object) -> None:
        self.events.emit(event_type, **fields)

    # ------------------------------------------------------------------ #
    # Exports
    # ------------------------------------------------------------------ #

    def trace_lines(self) -> List[str]:
        """The full trace as canonical JSONL lines: the manifest record,
        then every span (pre-order), then every event."""

        def line(kind: str, payload: Dict[str, object]) -> str:
            return json.dumps(
                {"kind": kind, **payload}, sort_keys=True, separators=(",", ":")
            )

        lines: List[str] = []
        if self.manifest is not None:
            lines.append(line("manifest", self.manifest.to_dict()))
        lines.extend(line("span", record) for record in self.tracer.records())
        lines.extend(line("event", record) for record in self.events.records())
        return lines

    def write_trace(self, path: Union[str, Path]) -> int:
        """Write the JSONL trace to ``path``; returns the line count."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = self.trace_lines()
        target.write_text("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    def metrics_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.metrics.as_dict())
        if self.manifest is not None:
            payload["manifest"] = self.manifest.to_dict()
        return payload

    def write_metrics(self, path: Union[str, Path]) -> None:
        """Write counters/gauges (+ manifest) as pretty JSON to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.metrics_payload(), sort_keys=True, indent=2) + "\n"
        )

    def summary(self) -> Dict[str, object]:
        """The ``report obs-summary`` payload: per-phase real/simulated
        cost, counters, gauges, and the manifest."""
        phases: Dict[str, Dict[str, object]] = {}

        def walk(span: Span) -> None:
            if span.name.startswith("phase:"):
                key = span.name[len("phase:") :]
                entry = phases.setdefault(
                    key, {"real_s": 0.0, "sim_s": 0.0, "spans": 0}
                )
                entry["spans"] += 1
                if span.real_elapsed is not None:
                    entry["real_s"] += span.real_elapsed
                if span.sim_elapsed is not None:
                    entry["sim_s"] += span.sim_elapsed
            for child in span.children:
                walk(child)

        for root in self.tracer.roots:
            walk(root)
        metrics = self.metrics.as_dict()
        return {
            "phases": phases,
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "events": len(self.events),
            "manifest": None if self.manifest is None else self.manifest.to_dict(),
        }


class _NullSpanContext:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpanContext()


class NullObs:
    """Disabled observability: every operation is a cheap no-op."""

    enabled = False

    def bind_clock(self, clock) -> None:
        pass

    def span(self, name: str, *, det: bool = False, **attrs: object):
        return _NULL_SPAN

    def inc(self, name: str, n: int = 1, merge: str = "sum") -> None:
        pass

    def gauge(self, name: str, value: float, merge: str = "max") -> None:
        pass

    def event(self, event_type: str, **fields: object) -> None:
        pass


#: The shared disabled collector.  Stateless, so one instance serves all.
NULL_OBS = NullObs()


# ---------------------------------------------------------------------- #
# Cross-shard merge
# ---------------------------------------------------------------------- #


def _span_key(span: Span):
    return (span.name, json.dumps(span.attrs, sort_keys=True))


def _merge_span_lists(
    shard_children: Sequence[List[Span]], roster_index: Dict[str, int]
) -> List[Span]:
    """Merge matching child lists from each shard.

    Structural children (no ``persona`` attribute) must form the same
    sequence in every shard; they are recursed into.  Persona children
    are concatenated and ordered by canonical roster position — each
    belongs to exactly one shard.
    """
    structural = [
        [c for c in children if "persona" not in c.attrs]
        for children in shard_children
    ]
    skeleton = structural[0]
    for index, other in enumerate(structural[1:], start=1):
        if [_span_key(s) for s in other] != [_span_key(s) for s in skeleton]:
            raise RuntimeError(
                "shards disagree on the structural span skeleton "
                f"(shard 0 vs shard {index}): "
                f"{[s.name for s in skeleton]} vs {[s.name for s in other]}"
            )

    merged_structural: List[Span] = []
    for position, template in enumerate(skeleton):
        peers = [columns[position] for columns in structural]
        node = Span(
            name=template.name,
            attrs=dict(template.attrs),
            det=template.det,
            status=(
                "error"
                if any(p.status == "error" for p in peers)
                else template.status
            ),
        )
        if template.det:
            sim_values = {p.sim_us for p in peers}
            if len(sim_values) > 1:
                raise RuntimeError(
                    f"deterministic span {template.name!r} disagrees across "
                    f"shards: sim_us {sorted(sim_values)}"
                )
            node.sim_start = template.sim_start
            node.sim_end = template.sim_end
        node.children = _merge_span_lists(
            [p.children for p in peers], roster_index
        )
        merged_structural.append(node)

    personas: List[Span] = [
        c for children in shard_children for c in children if "persona" in c.attrs
    ]
    personas.sort(
        key=lambda c: roster_index.get(str(c.attrs["persona"]), len(roster_index))
    )

    if merged_structural and personas:
        raise RuntimeError(
            "span level mixes structural and persona children — the merge "
            "cannot order them against the serial run"
        )
    return merged_structural or personas


def merge_collectors(
    collectors: Sequence[ObsCollector],
    roster: Sequence[str],
    manifest: Optional[RunManifest] = None,
) -> ObsCollector:
    """Deterministically merge per-shard collectors (in shard order).

    The merged simulated-time span tree is byte-identical to the serial
    run's for the same seed, provided shard persona subsets are
    contiguous slices of ``roster`` — the contract of
    :func:`repro.core.parallel.shard_personas`.
    """
    if not collectors:
        raise ValueError("no collectors to merge")
    roster_index = {name: i for i, name in enumerate(roster)}
    merged = ObsCollector()
    merged.tracer.roots = _merge_span_lists(
        [c.tracer.roots for c in collectors], roster_index
    )
    merged.metrics = MetricsRegistry.merge([c.metrics for c in collectors])
    merged.events = EventLog.merge([c.events for c in collectors])
    merged.manifest = manifest
    return merged
