"""Seeded-deterministic observability for the auditing framework.

Four pieces, one handle:

* :class:`~repro.obs.tracer.Tracer` — span-based tracing with simulated
  (world-clock) and real (``perf_counter``) time in separate fields;
* :class:`~repro.obs.metrics.MetricsRegistry` — typed counters/gauges
  with per-metric deterministic merge policies;
* :class:`~repro.obs.events.EventLog` — structured JSONL events with a
  stable schema;
* :class:`~repro.obs.manifest.RunManifest` — seed, config fingerprint,
  worker topology, per-phase wall-clock.

:class:`~repro.obs.collector.ObsCollector` bundles them; pass one to
:func:`repro.core.run_campaign` (or let it create one) and read it back
from ``dataset.obs``.  Disabled observability is the
:data:`~repro.obs.collector.NULL_OBS` null object, so instrumented code
never branches on an ``if``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "Counter": "metrics",
        "EVENT_SCHEMA_VERSION": "events",
        "EventLog": "events",
        "Gauge": "metrics",
        "MANIFEST_SCHEMA_VERSION": "manifest",
        "MERGE_POLICIES": "metrics",
        "MetricsRegistry": "metrics",
        "NULL_OBS": "collector",
        "NullObs": "collector",
        "ObsCollector": "collector",
        "RunManifest": "manifest",
        "SPAN_SCHEMA_VERSION": "tracer",
        "Span": "tracer",
        "Tracer": "tracer",
        "event_line": "events",
        "make_event_record": "events",
        "merge_collectors": "collector",
    },
)
