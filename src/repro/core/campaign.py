"""The one campaign entrypoint: :func:`run_campaign` on a
:class:`CampaignSpec`.

The framework grew three ways to run the measurement campaign — serial
(``run_experiment``), persona-sharded parallel
(``run_parallel_experiment``), and disk-cached
(``run_cached_experiment``) — each with its own argument order and no
shared observability story.  ``run_campaign`` collapsed them behind one
signature, and then accreted thirteen keyword arguments that could not
cross a process boundary.  :class:`CampaignSpec` is the redesign: one
frozen, validated, JSON-round-trippable object holding *everything* that
defines a campaign execution — config, seed, worker topology,
observability, crash-safety knobs, and store selection — shared verbatim
by the Python API, the CLI, and the HTTP service
(:mod:`repro.service`)::

    spec = CampaignSpec(config=ExperimentConfig(), seed=42,
                        parallel=True, workers=4)
    dataset = run_campaign(spec)                    # the one entrypoint
    spec == CampaignSpec.from_json(spec.to_json())  # exact round trip
    spec.fingerprint()                              # stable job identity

The kwargs form survives as a thin shim that builds a spec and
delegates::

    dataset = run_campaign(config, seed)                     # serial
    dataset = run_campaign(config, seed, parallel=True, workers=4)  # sharded

Observability is on by default: every run traces into an
:class:`~repro.obs.ObsCollector` (spans, counters, events, manifest)
exposed as ``dataset.obs``.  Parallel runs merge per-shard collectors so
the simulated-time span tree is byte-identical to the serial run's for
the same seed.

:func:`execute_spec` is the run-and-export path on top: it executes a
spec (memory or segment store) and writes the export files to a
directory — the CLI's ``run`` command and the HTTP service both call it,
which is what makes an HTTP-submitted spec's exports byte-identical to
the same spec run locally.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.core.experiment import (
    AuditDataset,
    ExperimentConfig,
    _run_serial_experiment,
    config_fingerprint,
)
from repro.core.personas import scaled_roster
from repro.obs import NULL_OBS, ObsCollector, RunManifest
from repro.util.rng import Seed

if TYPE_CHECKING:
    # The supervisor (with multiprocessing), the segment store and the
    # storage seam are imported on the paths that use them: a campaign
    # set-up loads none of them, a serial run never loads the supervisor.
    from repro.core.parallel import WorkerFaultPlan

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "STORES",
    "CampaignSpec",
    "execute_spec",
    "run_campaign",
    "run_segment_campaign",
    "run_segment_positions",
]

#: Bump whenever the serialized CampaignSpec layout changes shape; a
#: stale or foreign spec document fails :meth:`CampaignSpec.from_dict`.
SPEC_SCHEMA_VERSION = 1

#: Campaign result stores: ``"memory"`` materializes one in-RAM
#: ``AuditDataset``; ``"segments"`` streams persona batches through the
#: on-disk :class:`~repro.core.segments.SegmentStore`.
STORES = ("memory", "segments")

#: Worker backends.  Shard workers are always forked processes: the
#: campaign is pure Python under one GIL, so only a process gains from
#: running personas side by side.  Kept as a tuple because
#: ``CampaignSpec.backend`` (spec schema 1) still names it.
BACKENDS = ("process",)

#: Supervisor policies for a shard that exhausts its attempts.
ON_SHARD_FAILURE = ("retry", "degrade", "raise")

#: Default worker count when ``parallel=True`` and ``workers`` is unset.
_DEFAULT_WORKERS = 2

#: Spec-schema-1 fields of the removed dataset cache and shard
#: checkpoint journal, with the only value each still accepts.  The
#: segment store replaces both: its covered batches are reuse and resume.
_RETIRED_FIELDS = {
    "cache": None,
    "cache_copy": True,
    "checkpoint_dir": None,
    "resume": False,
}


def _resolve_seed(seed: Union[int, Seed]) -> Seed:
    if isinstance(seed, Seed):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int or Seed, got {type(seed).__name__}")
    return Seed(seed)


def _resolve_obs(obs: Union[None, bool, ObsCollector]):
    """``None`` → fresh collector, ``False`` → disabled, collector → as-is."""
    if obs is None or obs is True:
        return ObsCollector()
    if obs is False:
        return NULL_OBS
    if isinstance(obs, ObsCollector):
        return obs
    raise TypeError(
        f"obs must be None, a bool, or an ObsCollector, got {type(obs).__name__}"
    )


# ---------------------------------------------------------------------- #
# CampaignSpec
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CampaignSpec:
    """One complete, serializable description of a campaign execution.

    Every field is a JSON scalar, a nested :class:`ExperimentConfig`, or
    ``None`` — ``CampaignSpec.from_json(spec.to_json())`` round-trips
    exactly, and :meth:`fingerprint` is a stable identity usable as a
    job key across processes and machines.  Validation happens at
    construction (``__post_init__``), so an invalid spec can never be
    submitted, scheduled, or executed: the CLI, the Python API, and the
    HTTP body all fail with the same message.

    Non-serializable runtime companions (a live
    :class:`~repro.obs.ObsCollector`, a
    :class:`~repro.core.parallel.WorkerFaultPlan`) are deliberately NOT
    spec fields — they are per-process overrides accepted by the kwargs
    form of :func:`run_campaign` only.
    """

    #: Scale knobs; the paper-scale default when omitted.
    config: ExperimentConfig = dataclasses.field(default_factory=ExperimentConfig)
    #: Root seed (int — :class:`~repro.util.rng.Seed` is reconstructed
    #: at execution time so the spec stays JSON-scalar).
    seed: int = 42
    #: Shard the persona roster across workers.
    parallel: bool = False
    #: Worker count (``None`` → default 2; only valid with ``parallel``).
    workers: Optional[int] = None
    #: Parallel backend.  ``"process"`` (forked workers) is the only
    #: value; the field stays because it is part of the schema-1 JSON
    #: form and of every spec fingerprint.
    backend: str = "process"
    #: Retired with the dataset cache: accepts only ``None``.  The field
    #: stays because it is part of the schema-1 JSON form and of every
    #: spec fingerprint (as do ``cache_copy``, ``checkpoint_dir`` and
    #: ``resume``; see ``_RETIRED_FIELDS``).
    cache: Optional[str] = None
    #: Retired with the dataset cache: accepts only ``True``.
    cache_copy: bool = True
    #: Collect the observability trace (``dataset.obs``).  Memory store
    #: only; segment-store workers never trace.
    obs: bool = True
    #: Retired with the shard checkpoint journal: accepts only ``None``.
    checkpoint_dir: Optional[str] = None
    #: Retired with the shard checkpoint journal: accepts only ``False``.
    resume: bool = False
    #: Supervisor policy when a shard exhausts its attempts:
    #: ``"retry"`` / ``"degrade"`` / ``"raise"``.
    on_shard_failure: str = "retry"
    #: Wall-clock watchdog seconds per shard attempt (``None`` → off).
    shard_timeout: Optional[float] = None
    #: Requeues per shard after its first failed attempt.
    max_shard_retries: int = 2
    #: Result store: ``"memory"`` or ``"segments"``.
    store: str = "memory"
    #: Segment-store root (``store="segments"`` only; ``None`` lets
    #: :func:`execute_spec` default it to ``<out>/_segments``).
    store_dir: Optional[str] = None
    #: Personas per streamed batch (``store="segments"`` only).
    batch_personas: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.config, ExperimentConfig):
            raise TypeError(
                "config must be an ExperimentConfig, got "
                f"{type(self.config).__name__}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend {self.backend!r} is not supported: shard workers "
                "are always forked processes (the thread backend was "
                "removed) — omit backend or set it to \"process\", or run "
                "with parallel=False"
            )
        retired = [
            name
            for name, default in _RETIRED_FIELDS.items()
            if getattr(self, name) != default
        ]
        if retired:
            raise ValueError(
                f"retired spec field(s) {', '.join(retired)}: the dataset "
                "cache and the shard checkpoint journal were removed — for "
                'reuse and crash-safe resume, set store: "segments" plus '
                "store_dir (a rerun resumes from the store's covered "
                "batches), and leave cache, cache_copy, checkpoint_dir and "
                "resume unset"
            )
        if self.parallel and not hasattr(os, "fork"):
            raise ValueError(
                "parallel=True needs the fork start method, which this "
                "platform lacks — run with parallel=False"
            )
        if self.on_shard_failure not in ON_SHARD_FAILURE:
            raise ValueError(
                f"on_shard_failure must be one of {ON_SHARD_FAILURE}, got "
                f"{self.on_shard_failure!r}"
            )
        if self.store not in STORES:
            raise ValueError(f"store must be one of {STORES}, got {self.store!r}")
        if self.workers is not None:
            if isinstance(self.workers, bool) or not isinstance(self.workers, int):
                raise TypeError(
                    f"workers must be an int, got {type(self.workers).__name__}"
                )
            if self.workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers}")
            if not self.parallel:
                raise ValueError("workers requires parallel=True")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.batch_personas < 1:
            raise ValueError(
                f"batch_personas must be >= 1, got {self.batch_personas}"
            )
        if not self.parallel:
            supervisor_knobs = {
                "on_shard_failure": (self.on_shard_failure, "retry"),
                "shard_timeout": (self.shard_timeout, None),
                "max_shard_retries": (self.max_shard_retries, 2),
            }
            offending = [
                name
                for name, (value, default) in supervisor_knobs.items()
                if value != default
            ]
            if offending:
                raise ValueError(
                    f"{', '.join(offending)} require(s) parallel=True — the "
                    "shard supervisor only exists for sharded runs"
                )
        if self.store != "segments" and self.batch_personas != 1:
            raise ValueError("batch_personas requires store='segments'")
        if self.store_dir is not None and not isinstance(self.store_dir, str):
            raise TypeError(
                "store_dir must be a string path or None in a CampaignSpec, "
                f"got {type(self.store_dir).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (nested config expanded field by field)."""
        payload = dataclasses.asdict(self)
        payload["config"]["audio_personas"] = list(
            payload["config"]["audio_personas"]
        )
        payload["schema"] = SPEC_SCHEMA_VERSION
        return payload

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        """Build and validate a spec from its :meth:`to_dict` form.

        Unknown keys — top-level or inside ``config`` — are an error,
        never silently dropped: a typo'd knob in an HTTP body must fail
        the submit, not run a subtly different campaign.
        """
        if not isinstance(payload, dict):
            raise TypeError(
                f"campaign spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        payload = dict(payload)
        schema = payload.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"campaign spec schema {schema!r} is not supported "
                f"(this build speaks schema {SPEC_SCHEMA_VERSION})"
            )
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(f"unknown campaign spec fields: {unknown}")
        config = payload.get("config", {})
        if isinstance(config, dict):
            config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
            bad = sorted(set(config) - config_fields)
            if bad:
                raise ValueError(f"unknown config fields: {bad}")
            payload["config"] = ExperimentConfig(**config)
        elif not isinstance(config, ExperimentConfig):
            raise TypeError(
                "config must be a JSON object or ExperimentConfig, got "
                f"{type(config).__name__}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"campaign spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Stable content digest of the spec (16 hex chars).

        Canonical-JSON based (sorted keys, compact separators), so the
        same spec fingerprints identically in every process, on every
        machine, and across submissions — job identity for the service
        layer and a reuse key everywhere else.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def replace(self, **changes: object) -> "CampaignSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #


def run_campaign(
    config: Union[None, ExperimentConfig, CampaignSpec] = None,
    seed: Union[int, Seed] = 42,
    *,
    parallel: bool = False,
    workers: Optional[int] = None,
    obs: Union[None, bool, ObsCollector] = None,
    on_shard_failure: str = "retry",
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 2,
    worker_faults: Optional[WorkerFaultPlan] = None,
):
    """Run the full measurement campaign described by a spec.

    The one true entrypoint takes a :class:`CampaignSpec`::

        dataset = run_campaign(spec)

    and returns the :class:`~repro.core.experiment.AuditDataset`
    (``spec.store == "memory"``) or the
    :class:`~repro.core.segments.SegmentStore` (``spec.store ==
    "segments"``).

    The historical kwargs form is kept as a thin shim: it normalises its
    arguments into a :class:`CampaignSpec` plus the non-serializable
    runtime companions and delegates.  See :class:`CampaignSpec` for the
    meaning of every knob; the runtime-only extras are:

    obs:
        ``None``/``True``/``False`` map onto ``spec.obs``; an existing
        :class:`~repro.obs.ObsCollector` traces into it (serial only).
    worker_faults:
        Seeded :class:`~repro.core.parallel.WorkerFaultPlan` injecting
        worker-level crash/hang/poison faults (tests, chaos CI).  Never
        part of a spec: fault injection is a property of the harness,
        not of the campaign.
    """
    if isinstance(config, CampaignSpec):
        spec = config
        extras = {
            "seed": (seed, 42),
            "parallel": (parallel, False),
            "workers": (workers, None),
            "obs": (obs, None),
            "on_shard_failure": (on_shard_failure, "retry"),
            "shard_timeout": (shard_timeout, None),
            "max_shard_retries": (max_shard_retries, 2),
        }
        offending = [
            name for name, (value, default) in extras.items() if value != default
        ]
        if offending:
            raise TypeError(
                "run_campaign(spec) takes the whole campaign from the spec; "
                f"also passing {', '.join(offending)} is ambiguous — use "
                "spec.replace(...) instead"
            )
        return _execute(spec, worker_faults=worker_faults)

    # Legacy kwargs form: normalise into a spec + runtime companions.
    if config is None:
        config = ExperimentConfig()
    seed_obj = _resolve_seed(seed)
    if obs is not None and not isinstance(obs, (bool, ObsCollector)):
        raise TypeError(
            f"obs must be None, a bool, or an ObsCollector, got {type(obs).__name__}"
        )
    obs_override = obs if isinstance(obs, ObsCollector) else None
    if not parallel and workers is not None:
        raise ValueError("workers requires parallel=True")
    spec = CampaignSpec(
        config=config,
        seed=seed_obj.root,
        parallel=parallel,
        workers=workers,
        obs=obs is not False,
        on_shard_failure=on_shard_failure,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
    )
    return _execute(spec, obs_override=obs_override, worker_faults=worker_faults)


def _execute(
    spec: CampaignSpec,
    *,
    obs_override: Optional[ObsCollector] = None,
    worker_faults: Optional[WorkerFaultPlan] = None,
):
    """Execute a validated spec (plus runtime-only companions)."""
    from repro import __version__

    if spec.store == "segments":
        if spec.store_dir is None:
            raise ValueError(
                "store='segments' needs store_dir — set it on the spec, or "
                "run through execute_spec(spec, out_dir) which defaults it "
                "to <out>/_segments"
            )
        return run_segment_campaign(
            spec.config,
            spec.seed,
            store_dir=spec.store_dir,
            parallel=spec.parallel,
            workers=spec.workers,
            batch_personas=spec.batch_personas,
            on_shard_failure=spec.on_shard_failure,
            shard_timeout=spec.shard_timeout,
            max_shard_retries=spec.max_shard_retries,
            worker_faults=worker_faults,
        )

    config = spec.config
    seed = Seed(spec.seed)
    collector = obs_override if obs_override is not None else _resolve_obs(spec.obs)
    if spec.parallel and obs_override is not None:
        raise ValueError(
            "cannot trace a parallel run into a caller-supplied collector; "
            "pass obs=None and read the merged collector from dataset.obs"
        )

    fingerprint = config_fingerprint(config)
    roster = tuple(p.name for p in scaled_roster(config.roster_scale))

    if spec.parallel:
        from repro.core.parallel import (
            SupervisorPolicy,
            _run_parallel_experiment,
            shard_personas,
        )

        n_workers = _DEFAULT_WORKERS if spec.workers is None else spec.workers
        policy = SupervisorPolicy(
            on_shard_failure=spec.on_shard_failure,
            shard_timeout=spec.shard_timeout,
            max_shard_retries=spec.max_shard_retries,
            worker_faults=worker_faults,
        )
        dataset, report = _run_parallel_experiment(
            seed,
            config,
            workers=n_workers,
            collect_obs=collector.enabled,
            policy=policy,
        )
        shards = tuple(
            tuple(p.name for p in shard)
            for shard in shard_personas(scaled_roster(config.roster_scale), n_workers)
        )
        manifest = RunManifest(
            seed_root=seed.root,
            config_fingerprint=fingerprint,
            entrypoint="parallel",
            workers=len(shards),
            backend=spec.backend,
            shards=shards,
            package_version=__version__,
            fault_profile=config.fault_profile,
            shard_attempts=tuple(
                tuple(report.attempts.get(index, []))
                for index in range(len(shards))
            ),
            missing_personas=report.missing_personas,
        )
    else:
        dataset = _run_serial_experiment(seed, config, obs=collector)
        manifest = RunManifest(
            seed_root=seed.root,
            config_fingerprint=fingerprint,
            entrypoint="serial",
            shards=(roster,),
            package_version=__version__,
            fault_profile=config.fault_profile,
        )

    if dataset.obs is not None:
        manifest.phase_real_seconds = {
            name: seconds
            for name, seconds in dataset.timings.items()
            if "." not in name  # skip shard-prefixed worker timings
        }
        dataset.obs.manifest = manifest
    return dataset


def execute_spec(
    spec: CampaignSpec,
    out_dir: Union[str, Path],
    *,
    worker_faults: Optional[WorkerFaultPlan] = None,
) -> Tuple[Dict[str, int], object]:
    """Run ``spec`` and export its artifacts to ``out_dir``.

    The single run-and-export code path shared by ``repro run``, the
    Python API, and the HTTP service (:mod:`repro.service`): because
    export content is seed-deterministic and every consumer funnels
    through here, the export directory for a given spec is byte-
    identical no matter which surface submitted it.

    Returns ``(counts, result)`` where ``counts`` maps export file name
    to row count and ``result`` is the
    :class:`~repro.core.experiment.AuditDataset` (memory store) or
    :class:`~repro.core.segments.SegmentStore` (segment store).
    """
    from repro.core.export import export_dataset, export_segment_store

    out = Path(out_dir)
    if spec.store == "segments":
        if spec.store_dir is None:
            spec = spec.replace(store_dir=str(out / "_segments"))
        store = run_campaign(spec, worker_faults=worker_faults)
        return export_segment_store(store, out), store
    dataset = run_campaign(spec, worker_faults=worker_faults)
    return export_dataset(dataset, out), dataset


def run_segment_campaign(
    config: Optional[ExperimentConfig] = None,
    seed: Union[int, Seed] = 42,
    *,
    store_dir: Union[str, Path],
    parallel: bool = False,
    workers: Optional[int] = None,
    batch_personas: int = 1,
    on_shard_failure: str = "retry",
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 2,
    worker_faults: Optional[WorkerFaultPlan] = None,
):
    """Run the campaign into a segment store instead of memory.

    The flat-memory entrypoint: personas are executed in
    ``batch_personas``-sized batches, each batch's artifacts are
    flattened to segment records and published to the
    :class:`~repro.core.segments.SegmentStore` under ``store_dir``, and
    the batch is dropped before the next one starts — peak memory is
    bounded by one batch, not the roster.  Export the result with
    :func:`repro.core.export.export_segment_store`; for the same seed
    and config the files are byte-identical to the in-memory path's.

    Coverage is content-addressed per batch, and it is the campaign's
    only durable state: re-running the same ``(seed, config)`` skips
    covered personas (reuse), and a killed campaign — serial or
    parallel — resumes from its completed batches without any extra
    flags.

    With ``parallel=True`` the roster is sharded under the same
    supervisor as :func:`run_campaign` (``on_shard_failure`` /
    ``shard_timeout`` / ``max_shard_retries`` / ``worker_faults``
    behave identically); workers write segments directly to the shared
    store and return artifact-free shard results, so nothing
    persona-sized ever crosses the process boundary.

    Returns the :class:`~repro.core.segments.SegmentStore`; its
    manifest is stamped from its verified coverage: ``"complete"``, or
    ``"partial"`` with ``missing_personas`` when a degraded parallel run
    or a full disk left personas unwritten.
    """
    from repro.core.iosim import current_storage_faults
    from repro.core.segments import SegmentStore

    if config is None:
        config = ExperimentConfig()
    seed = _resolve_seed(seed)
    if batch_personas < 1:
        raise ValueError(f"batch_personas must be >= 1, got {batch_personas}")
    if not parallel and workers is not None:
        raise ValueError("workers requires parallel=True")

    fingerprint = config_fingerprint(config)
    roster = scaled_roster(config.roster_scale)
    names = tuple(p.name for p in roster)
    store = SegmentStore(store_dir, seed.root, fingerprint, names)
    store.ensure_manifest()

    run_segment_positions(
        store,
        seed,
        config,
        range(len(names)),
        parallel=parallel,
        workers=workers,
        batch_personas=batch_personas,
        on_shard_failure=on_shard_failure,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        worker_faults=worker_faults,
    )
    plan = current_storage_faults()
    # Segment workers never trace, so the store manifest carries the
    # storage fault accounting.
    faulted = plan is not None and plan.snapshot()
    store.publish_manifest({"storage": plan.summary()} if faulted else None)
    return store


def run_segment_positions(
    store,
    seed: Seed,
    config: ExperimentConfig,
    positions,
    *,
    parallel: bool = False,
    workers: Optional[int] = None,
    batch_personas: int = 1,
    on_shard_failure: str = "retry",
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 2,
    worker_faults: Optional[WorkerFaultPlan] = None,
) -> None:
    """Execute a subset of roster positions into a segment store.

    The execution core shared by :func:`run_segment_campaign` (which
    passes the full roster) and the timeline layer's incremental epoch
    runner (which passes only the dirty set).  Already-covered positions
    are skipped either way.  The caller owns the manifest and the digest
    cache: :meth:`~repro.core.segments.SegmentStore.publish_manifest`
    stamps a degraded shard or a full disk from coverage.  ``store``
    scans once and trusts its own writes; forked shard workers write no
    store metadata, and ``store`` verifies their segments in one rescan.

    The seed-only base skill catalog is built at most once per call —
    only when some position is still uncovered — and shared by every
    batch's world (each world still applies ``config.catalog_churn``).
    It lives for this call only: no cache outlives the campaign.
    """
    import functools
    import gc

    from repro.core.iosim import is_enospc
    from repro.core.segments import run_segment_shard, write_segment_batch
    from repro.data.skill_catalog import build_catalog

    roster = scaled_roster(config.roster_scale)
    positions = sorted(set(int(pos) for pos in positions))
    for pos in positions:
        if not 0 <= pos < len(roster):
            raise ValueError(
                f"position {pos} outside roster of {len(roster)}"
            )

    covered = store.covered_positions()
    pending = [pos for pos in positions if pos not in covered]
    # Unchurned on purpose: build_world churns each world on top of it.
    # Built before any worker starts, so forked shards inherit it (and
    # freeze it with the rest of their heap).
    catalog = build_catalog(seed) if pending else None

    if not parallel:
        for start in range(0, len(pending), batch_personas):
            try:
                write_segment_batch(
                    store,
                    seed,
                    config,
                    pending[start : start + batch_personas],
                    catalog,
                )
            except OSError as exc:
                if not is_enospc(exc):
                    raise
                # Disk exhaustion does not heal on retry: stop, as
                # on_shard_failure="degrade" does.  Coverage (an atomic
                # marker per batch) tells the caller what is missing.
                return
            # The dead world/runner graph is cyclic; collect it now so
            # peak memory stays one-batch-sized instead of riding the
            # generational GC's schedule across a long roster.
            gc.collect()
        return

    from repro.core.parallel import SupervisorPolicy, _ShardSupervisor, shard_personas

    n_workers = _DEFAULT_WORKERS if workers is None else workers
    if n_workers < 1:
        raise ValueError(f"workers must be >= 1, got {n_workers}")
    if not positions:
        return
    policy = SupervisorPolicy(
        on_shard_failure=on_shard_failure,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        worker_faults=worker_faults,
    )
    plan = [
        [p.name for p in shard]
        for shard in shard_personas([roster[pos] for pos in positions], n_workers)
    ]
    # Durability lives in the store's content-addressed batches, so the
    # supervisor keeps no journal here: shard outcomes come back over
    # its pipes, and a rerun resumes from the store's coverage.
    supervisor = _ShardSupervisor(
        plan,
        seed,
        config,
        False,  # collect_obs: segment shards never trace
        policy,
        shard_fn=functools.partial(
            run_segment_shard,
            store_root=str(store.root),
            batch_personas=batch_personas,
            catalog=catalog,
        ),
    )
    supervisor.run()
    # Workers wrote batches from other processes; drop the coverage scan
    # this handle took before the run.
    store.invalidate_scan()
