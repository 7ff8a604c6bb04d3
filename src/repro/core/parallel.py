"""Persona-sharded parallel campaign runner with a crash-safe supervisor.

The serial campaign (``run_campaign(config, seed)``) is a
single pass over the full persona roster.  But personas are measurement
*units*: every per-persona artifact is derived from seed-keyed random
substreams (:class:`~repro.util.rng.Seed`, :class:`~repro.util.rng.StreamFamily`),
never from call order, so a persona's artifacts are identical whether or
not other personas share its world.  That invariance is what this module
exploits: partition the roster into contiguous shards, run each shard in
its own worker against a private world built from the same root seed,
then merge the shard artifacts back — deterministically — into one
:class:`~repro.core.experiment.AuditDataset` whose exported form is
bit-identical to the serial run's.

Determinism rules the merge relies on:

* shards are contiguous slices of the canonical ``all_personas()``
  order, so re-inserting personas in that order reproduces the serial
  dataset's dict ordering (exports iterate insertion order);
* site discovery is seed-determined, so every shard discovers the same
  prebid/crawl sets — the merge asserts this instead of trusting it;
* policy fetches are collected per interest persona in roster order, so
  concatenating shard lists in shard order matches the serial list.

Workers return :class:`ShardResult`, a world-free bundle that pickles
cleanly for the process backend (a live world holds service closures,
which do not pickle).  The merged dataset carries a fresh
``build_world(seed)`` as its generative-truth handle.

Crash safety
------------

Shards are driven by a **supervisor** rather than a bare futures loop.
Every worker publishes its :class:`ShardResult` to a
:class:`~repro.core.checkpoint.ShardJournal` (an ephemeral one when
checkpointing is off), and the supervisor polls the journal plus worker
liveness under a wall-clock watchdog:

* a worker that dies without publishing is a **crash** — the shard is
  requeued up to ``max_shard_retries`` times;
* a worker that exceeds ``shard_timeout`` host seconds is **hung** —
  the watchdog reaps it (``terminate()`` for processes, a cancel event
  for threads) and requeues the shard.  The watchdog reads the host
  clock only; the simulation's :class:`~repro.util.clock.SimClock`
  never gates supervision;
* a journal entry that fails validation is **poisoned** — quarantined
  (``*.corrupt``) and the shard requeued.

What happens when a shard exhausts its attempts is the
``on_shard_failure`` policy: ``"retry"`` (default) raises
:class:`ShardFailure` after the retry budget, ``"raise"`` propagates on
the *first* failure, and ``"degrade"`` merges the completed shards into
an explicitly-partial dataset — the dropped personas land in
``dataset.missing_personas``, the run manifest, and ``supervisor.*``
counters, never silently absent.

Every recovery path is deterministically testable through
:class:`WorkerFaultPlan`, seeded worker-level fault injection in the
spirit of :mod:`repro.netsim.faults`: crash-before-result, hang, or
poison-result decisions drawn per ``(shard, attempt)`` from
``seed.derive("supervisor")``, or pinned exactly with
:meth:`WorkerFaultPlan.targeted`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.checkpoint import (
    CorruptShardError,
    ShardJournal,
    atomic_write_bytes,
)
from repro.core.experiment import (
    AuditDataset,
    ExperimentConfig,
    ExperimentRunner,
    PersonaArtifacts,
    PolicyFetch,
)
from repro.core.personas import Persona, all_personas, scaled_roster
from repro.core.world import build_config_world, build_world
from repro.data.websites import WebsiteSpec
from repro.obs import ObsCollector, merge_collectors
from repro.util.rng import Seed, StreamFamily

__all__ = [
    "BACKENDS",
    "ON_SHARD_FAILURE",
    "WORKER_FAULT_KINDS",
    "ShardFailure",
    "ShardResult",
    "SupervisorPolicy",
    "SupervisorReport",
    "WorkerFaultDecision",
    "WorkerFaultPlan",
    "parallel_map",
    "shard_personas",
    "merge_shard_results",
]

#: Worker backends: "process" sidesteps the GIL (the campaign is pure
#: Python, so threads add no speedup); "thread" avoids fork/pickle cost
#: and is what the determinism tests exercise cheaply.
BACKENDS = ("process", "thread")

#: Supervisor policies for a shard that exhausts its attempts.
ON_SHARD_FAILURE = ("retry", "degrade", "raise")

#: Injectable worker failure modes, in decision-draw order (the order is
#: part of the deterministic contract, as in ``netsim.faults``).
WORKER_FAULT_KINDS = ("crash", "hang", "poison")

#: Exit code an injected worker crash dies with (process backend).
_CRASH_EXIT_CODE = 3

#: Bytes a poisoned worker publishes instead of a valid pickle payload.
_POISON_BYTES = b"poisoned shard result (injected by WorkerFaultPlan)"


def parallel_map(fn, items, workers=None, backend="thread"):
    """Order-preserving map with optional worker fan-out.

    ``workers=None`` (or ``<= 1``) runs serially in the caller's thread —
    the default.  With more workers the items are mapped across a thread
    or process pool, but results always come back in *input* order, not
    completion order, so downstream aggregation stays deterministic
    either way.  The process backend requires ``fn`` and every item to
    pickle; shared mutable state on ``fn`` (e.g. memo caches) is only
    shared under the thread backend.
    """
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    executor_cls = (
        ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    )
    with executor_cls(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass
class ShardResult:
    """World-free, picklable artifact bundle from one shard worker."""

    shard_index: int
    persona_names: List[str]
    personas: Dict[str, PersonaArtifacts]
    prebid_sites: List[WebsiteSpec]
    crawl_sites: List[WebsiteSpec]
    policy_fetches: List[PolicyFetch]
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-shard observability collector (None when tracing was off).
    #: Collectors are world-free, so they pickle across the process
    #: boundary with the rest of the bundle.
    obs: Optional[ObsCollector] = None


def shard_personas(
    personas: Sequence[Persona], num_shards: int
) -> List[List[Persona]]:
    """Partition ``personas`` into ≤ ``num_shards`` contiguous slices.

    Slices preserve the input order and differ in size by at most one,
    with the larger slices first.  The partition depends only on
    ``(len(personas), num_shards)`` — no randomness, no wall clock — so
    the same inputs always produce the same shards.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    personas = list(personas)
    if not personas:
        raise ValueError("cannot shard an empty persona list")
    num_shards = min(num_shards, len(personas))
    base, extra = divmod(len(personas), num_shards)
    shards: List[List[Persona]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(personas[start : start + size])
        start += size
    return shards


def _run_shard(
    shard_index: int,
    seed: Seed,
    config: ExperimentConfig,
    persona_names: Sequence[str],
    collect_obs: bool = False,
) -> ShardResult:
    """Run the campaign for one persona subset in a private world.

    Module-level (not a closure) so the process backend can pickle it.
    The world is rebuilt inside the worker from the shared root seed:
    worlds hold unpicklable service closures and must never cross the
    process boundary.  With ``collect_obs`` the worker traces into a
    fresh :class:`~repro.obs.ObsCollector` that rides back on the result.
    """
    roster = {p.name: p for p in scaled_roster(config.roster_scale)}
    unknown = [n for n in persona_names if n not in roster]
    if unknown:
        raise ValueError(f"unknown personas in shard {shard_index}: {unknown}")
    personas = [roster[name] for name in persona_names]
    # Faults come from the root seed (never shard order): every shard's
    # FaultPlan draws identical per-(actor, domain) schedules, which is
    # what keeps faulted parallel runs byte-identical to serial.
    world = build_config_world(seed, config)
    obs = ObsCollector() if collect_obs else None
    dataset = ExperimentRunner(world, config, personas=personas, obs=obs).run()
    return ShardResult(
        shard_index=shard_index,
        persona_names=list(persona_names),
        personas=dataset.personas,
        prebid_sites=dataset.prebid_sites,
        crawl_sites=dataset.crawl_sites,
        policy_fetches=dataset.policy_fetches,
        timings=dataset.timings,
        obs=dataset.obs,
    )


def merge_shard_results(
    seed: Seed,
    results: Sequence[ShardResult],
    fault_profile: Optional[str] = None,
    *,
    config: Optional[ExperimentConfig] = None,
    expected_personas: Optional[Sequence[str]] = None,
    allow_partial: bool = False,
) -> AuditDataset:
    """Deterministically reassemble shard results into one dataset.

    Sorts by shard index (results may arrive in any completion order),
    asserts cross-shard agreement on the discovered site sets, and
    inserts personas in canonical roster order so the merged dict —
    and therefore every export that iterates it — matches the serial
    run exactly.

    Completeness is accounted for explicitly: personas in
    ``expected_personas`` (default: the canonical roster) that no shard
    delivered are a hard error unless ``allow_partial=True`` was
    requested (the supervisor's ``on_shard_failure="degrade"`` path),
    in which case they are recorded in ``dataset.missing_personas`` —
    a degraded merge is always distinguishable from a complete one.
    """
    if not results:
        raise ValueError("no shard results to merge")
    ordered = sorted(results, key=lambda r: r.shard_index)
    indices = [r.shard_index for r in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices: {indices}")

    reference = ordered[0]
    for result in ordered[1:]:
        if (
            result.prebid_sites != reference.prebid_sites
            or result.crawl_sites != reference.crawl_sites
        ):
            raise RuntimeError(
                "shards disagree on discovered sites — the world build is "
                f"not seed-deterministic (shard {result.shard_index} vs "
                f"shard {reference.shard_index})"
            )

    by_name: Dict[str, PersonaArtifacts] = {}
    for result in ordered:
        for name, artifacts in result.personas.items():
            if name in by_name:
                raise ValueError(f"persona {name!r} appears in two shards")
            by_name[name] = artifacts

    expected = (
        [p.name for p in all_personas()]
        if expected_personas is None
        else list(expected_personas)
    )
    missing = tuple(name for name in expected if name not in by_name)
    if missing and not allow_partial:
        raise ValueError(
            f"shard results are missing personas {list(missing)}; a partial "
            "merge must be requested explicitly (allow_partial=True, or "
            "on_shard_failure='degrade' on the campaign)"
        )

    personas: Dict[str, PersonaArtifacts] = {}
    for name in expected:
        if name in by_name:
            personas[name] = by_name.pop(name)
    personas.update(by_name)  # custom personas outside the roster, if any

    policy_fetches: List[PolicyFetch] = []
    timings: Dict[str, float] = {}
    for result in ordered:
        policy_fetches.extend(result.policy_fetches)
        for phase, seconds in result.timings.items():
            timings[f"shard{result.shard_index}.{phase}"] = seconds

    obs = None
    if all(result.obs is not None for result in ordered):
        obs = merge_collectors(
            [result.obs for result in ordered],
            roster=expected,
        )

    return AuditDataset(
        personas=personas,
        prebid_sites=list(reference.prebid_sites),
        crawl_sites=list(reference.crawl_sites),
        policy_fetches=policy_fetches,
        # The merged dataset's generative-truth handle reflects the full
        # config when one is given (timeline epochs mutate the world).
        world=(
            build_config_world(seed, config)
            if config is not None
            else build_world(seed, faults=fault_profile)
        ),
        timings=timings,
        missing_personas=missing,
        obs=obs,
    )


# ---------------------------------------------------------------------- #
# Worker-level fault injection
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerFaultDecision:
    """One injected worker fault: what goes wrong for this attempt."""

    kind: str  # one of WORKER_FAULT_KINDS

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(f"unknown worker fault kind: {self.kind!r}")


class WorkerFaultPlan:
    """Seeded per-``(shard, attempt)`` worker fault schedule.

    Mirrors :class:`~repro.netsim.faults.FaultPlan` one level up the
    stack: where that plan fails individual *requests*, this one fails
    whole *workers* — crash before publishing a result, hang past the
    watchdog, or publish a poisoned (unreadable) result.  Decisions are
    drawn from :class:`~repro.util.rng.StreamFamily` substreams keyed by
    ``(shard_index, attempt)`` off ``seed.derive("supervisor")``, so a
    given attempt fails identically in every run of the same seed —
    every supervisor recovery path is deterministically testable.

    Rates are independent probabilities partitioning each attempt draw
    (their sum must stay ≤ 1; the remainder is a healthy worker).  For
    pinpoint tests, :meth:`targeted` builds a plan that faults exactly
    the ``(shard, attempt)`` pairs you name and nothing else.
    """

    def __init__(
        self,
        seed: Optional[Seed] = None,
        *,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        poison_rate: float = 0.0,
        hang_seconds: float = 3600.0,
        schedule: Optional[Dict[Tuple[int, int], str]] = None,
    ) -> None:
        for kind, rate in (
            ("crash", crash_rate),
            ("hang", hang_rate),
            ("poison", poison_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if crash_rate + hang_rate + poison_rate > 1.0:
            raise ValueError("worker fault rates must sum to <= 1")
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        self.crash_rate = crash_rate
        self.hang_rate = hang_rate
        self.poison_rate = poison_rate
        self.hang_seconds = hang_seconds
        self.schedule: Optional[Dict[Tuple[int, int], str]] = None
        if schedule is not None:
            normalised: Dict[Tuple[int, int], str] = {}
            for (shard_index, attempt), kind in schedule.items():
                if kind not in WORKER_FAULT_KINDS:
                    raise ValueError(f"unknown worker fault kind: {kind!r}")
                normalised[(int(shard_index), int(attempt))] = kind
            self.schedule = normalised
        self._streams: Optional[StreamFamily] = None
        if self.schedule is None and crash_rate + hang_rate + poison_rate > 0:
            if seed is None:
                raise ValueError("rate-based worker faults require a seed")
            self._streams = StreamFamily(
                seed.derive("supervisor"), "worker-faults"
            )

    @classmethod
    def targeted(
        cls,
        schedule: Dict[Tuple[int, int], str],
        hang_seconds: float = 3600.0,
    ) -> "WorkerFaultPlan":
        """A plan faulting exactly the named ``(shard, attempt)`` pairs.

        Attempts are 1-based: ``{(2, 1): "crash"}`` crashes shard 2's
        first attempt and leaves its retry healthy.
        """
        return cls(schedule=schedule, hang_seconds=hang_seconds)

    @property
    def enabled(self) -> bool:
        if self.schedule is not None:
            return bool(self.schedule)
        return self.crash_rate + self.hang_rate + self.poison_rate > 0

    def decide(
        self, shard_index: int, attempt: int
    ) -> Optional[WorkerFaultDecision]:
        """The fault (if any) for this shard attempt (attempts 1-based)."""
        if self.schedule is not None:
            kind = self.schedule.get((shard_index, attempt))
            return WorkerFaultDecision(kind) if kind is not None else None
        if self._streams is None:
            return None
        draw = self._streams.stream(shard_index, attempt).random()
        edge = self.crash_rate
        if draw < edge:
            return WorkerFaultDecision("crash")
        edge += self.hang_rate
        if draw < edge:
            return WorkerFaultDecision("hang")
        edge += self.poison_rate
        if draw < edge:
            return WorkerFaultDecision("poison")
        return None


# ---------------------------------------------------------------------- #
# Supervisor
# ---------------------------------------------------------------------- #


class ShardFailure(RuntimeError):
    """A shard could not be completed under the supervisor's policy."""

    def __init__(self, shard_index: int, outcomes: Sequence[str], detail: str):
        self.shard_index = shard_index
        self.outcomes = tuple(outcomes)
        super().__init__(
            f"shard {shard_index} failed after attempts "
            f"{list(self.outcomes)}: {detail}"
        )


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs governing shard retry, watchdog, and failure handling."""

    #: ``"retry"`` — requeue up to ``max_shard_retries`` times, then
    #: raise.  ``"degrade"`` — same retry budget, but exhausted shards
    #: are dropped and the merge is explicitly partial.  ``"raise"`` —
    #: propagate the first failure immediately, no retry.
    on_shard_failure: str = "retry"
    #: Host (wall-clock) seconds an attempt may run before the watchdog
    #: reaps it; ``None`` disables the watchdog.  Independent of the
    #: simulated clock — a hung worker burns no sim time.
    shard_timeout: Optional[float] = None
    #: Requeues per shard after its first failed attempt.
    max_shard_retries: int = 2
    #: Supervisor poll cadence (host seconds).
    poll_interval: float = 0.05
    #: Seeded worker-level fault injection (tests, chaos CI).
    worker_faults: Optional[WorkerFaultPlan] = None

    def __post_init__(self) -> None:
        if self.on_shard_failure not in ON_SHARD_FAILURE:
            raise ValueError(
                f"on_shard_failure must be one of {ON_SHARD_FAILURE}, got "
                f"{self.on_shard_failure!r}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )


@dataclass
class SupervisorReport:
    """What the supervisor did to get (or fail to get) every shard."""

    #: Outcome history per shard, in attempt order: ``"ok"``,
    #: ``"crash"``, ``"hang"``, ``"poison"``, or ``"checkpoint"`` (the
    #: shard was loaded from the journal on resume, no attempt made).
    attempts: Dict[int, List[str]] = field(default_factory=dict)
    #: Shards served from the checkpoint journal.
    resumed_shards: Tuple[int, ...] = ()
    #: Shards dropped under ``on_shard_failure="degrade"``.
    failed_shards: Tuple[int, ...] = ()
    #: Personas of the failed shards, in plan order.
    missing_personas: Tuple[str, ...] = ()

    @property
    def retries(self) -> int:
        """Attempts beyond each shard's first (checkpoint loads excluded)."""
        return sum(
            max(0, len([o for o in outcomes if o != "checkpoint"]) - 1)
            for outcomes in self.attempts.values()
        )

    def outcome_count(self, kind: str) -> int:
        return sum(
            outcomes.count(kind) for outcomes in self.attempts.values()
        )


def _thread_worker(
    journal: ShardJournal,
    shard_index: int,
    attempt: int,
    seed: Seed,
    config: ExperimentConfig,
    persona_names: Sequence[str],
    collect_obs: bool,
    fault_plan: Optional[WorkerFaultPlan],
    shard_fn,
    cancel_event: threading.Event,
    result_box: Dict[str, ShardResult],
    wake: threading.Event,
) -> None:
    """Thread-backend worker body: compute one shard, publish to the journal.

    A cancelled (reaped) thread cannot be killed, so it checks the
    cancel event at every stage and exits without publishing — an
    abandoned attempt never races the retry that replaced it.  After the
    journal write lands, the result is also placed in ``result_box`` so
    the supervisor (same process) skips the disk round trip — the
    journal stays the durable record, the box is just the fast channel.
    """
    try:
        decision = (
            fault_plan.decide(shard_index, attempt)
            if fault_plan is not None
            else None
        )
        if decision is not None and decision.kind == "crash":
            journal.write_error(
                shard_index, f"injected worker crash (attempt {attempt})"
            )
            return
        if decision is not None and decision.kind == "hang":
            cancel_event.wait(fault_plan.hang_seconds)
            if cancel_event.is_set():
                return
        result = shard_fn(shard_index, seed, config, persona_names, collect_obs)
        if cancel_event.is_set():
            return
        if decision is not None and decision.kind == "poison":
            atomic_write_bytes(journal.shard_path(shard_index), _POISON_BYTES)
            return
        journal.write_shard(shard_index, result)
        result_box["result"] = result
    except BaseException:
        if not cancel_event.is_set():
            try:
                journal.write_error(shard_index, traceback.format_exc())
            except OSError:
                pass
    finally:
        wake.set()  # worker is done (published, faulted, or cancelled)


def _process_worker(
    journal: ShardJournal,
    shard_index: int,
    attempt: int,
    seed: Seed,
    config: ExperimentConfig,
    persona_names: Sequence[str],
    collect_obs: bool,
    fault_plan: Optional[WorkerFaultPlan],
    shard_fn,
) -> None:
    """Process-backend worker body (module-level so it pickles).

    The first thing it does is ``gc.freeze()``: a forked child inherits
    the parent's whole heap, and without the freeze every collection in
    the child (``run_segment_shard`` collects after each batch) walks
    all of it again.  Freezing moves the inherited objects to the
    permanent generation, so collections see only what the shard
    allocates, and the untouched pages stay shared with the parent
    (the ``gc`` docs recommend this for fork without exec).  Only
    process workers freeze; the parent and thread workers share one
    heap whose garbage must stay collectable.
    """
    gc.freeze()
    try:
        decision = (
            fault_plan.decide(shard_index, attempt)
            if fault_plan is not None
            else None
        )
        if decision is not None and decision.kind == "crash":
            os._exit(_CRASH_EXIT_CODE)  # die before publishing anything
        if decision is not None and decision.kind == "hang":
            time.sleep(fault_plan.hang_seconds)
        result = shard_fn(shard_index, seed, config, persona_names, collect_obs)
        if decision is not None and decision.kind == "poison":
            atomic_write_bytes(journal.shard_path(shard_index), _POISON_BYTES)
            return
        journal.write_shard(shard_index, result)
    except BaseException:
        try:
            journal.write_error(shard_index, traceback.format_exc())
        except OSError:
            pass
        os._exit(1)


class _WorkerUnit:
    """One live shard attempt: its handle, deadline, and reaping."""

    def __init__(self, backend: str, attempt: int, deadline: Optional[float]):
        self.backend = backend
        self.attempt = attempt
        self.deadline = deadline
        self.cancel_event = threading.Event()
        #: In-process fast result channel (thread backend only): holds
        #: the ShardResult once the journal write has landed, sparing
        #: the supervisor the pickle round trip through disk.
        self.result_box: Dict[str, ShardResult] = {}
        self.handle: object = None

    @property
    def alive(self) -> bool:
        return self.handle.is_alive()

    @property
    def exit_detail(self) -> str:
        if self.backend == "process":
            return f"worker exit code {self.handle.exitcode}"
        return "worker thread ended"

    def reap(self) -> None:
        """Stop a hung attempt: terminate the process / cancel the thread."""
        if self.backend == "process":
            self.handle.terminate()
            self.handle.join(timeout=5.0)
        else:
            self.cancel_event.set()

    def finalize(self) -> None:
        """Collect a finished worker (no-op for abandoned threads)."""
        if self.backend == "process":
            self.handle.join(timeout=5.0)
        else:
            self.cancel_event.set()
            self.handle.join(timeout=0.1)


class _ShardSupervisor:
    """Drives every shard to completion (or policy-sanctioned failure).

    The loop is journal-driven: a shard is done when a *valid* journal
    entry exists for it, regardless of which attempt produced it.
    Liveness is sampled before the journal is read, so a worker that
    publishes and exits between two polls is never misread as a crash
    (publish happens-before exit).
    """

    def __init__(
        self,
        journal: ShardJournal,
        seed: Seed,
        config: ExperimentConfig,
        backend: str,
        collect_obs: bool,
        policy: SupervisorPolicy,
        shard_fn=_run_shard,
    ) -> None:
        self.journal = journal
        self.seed = seed
        self.config = config
        self.backend = backend
        self.collect_obs = collect_obs
        self.policy = policy
        self.shard_fn = shard_fn
        self._active: Dict[int, _WorkerUnit] = {}
        self._outcomes: Dict[int, List[str]] = {
            index: [] for index in range(len(journal.shard_plan))
        }
        self._failed: List[int] = []
        #: Set by thread workers when they finish, so the supervisor
        #: wakes immediately instead of sleeping out the poll interval.
        #: Process workers can't set it; they are caught by the poll.
        self._wake = threading.Event()

    # ------------------------------------------------------------------ #

    def run(
        self, preloaded: Optional[Dict[int, ShardResult]] = None
    ) -> Tuple[Dict[int, ShardResult], SupervisorReport]:
        results: Dict[int, ShardResult] = {}
        resumed: List[int] = []
        for index, result in sorted((preloaded or {}).items()):
            results[index] = result
            self._outcomes[index].append("checkpoint")
            resumed.append(index)

        raising: Optional[BaseException] = None
        try:
            for index in range(len(self.journal.shard_plan)):
                if index not in results:
                    self._spawn(index, attempt=1)
            while self._active:
                # Clear before polling: a publish landing mid-poll re-sets
                # the event, so the wait below returns immediately.
                self._wake.clear()
                self._poll(results)
                if self._active:
                    self._wake.wait(self.policy.poll_interval)
        except BaseException as exc:
            raising = exc
            raise
        finally:
            for unit in self._active.values():
                unit.reap()
            self._active.clear()
            missing = self._missing_personas()
            status = (
                "failed"
                if raising is not None
                else ("partial" if missing else "complete")
            )
            self.journal.write_manifest(
                status=status,
                attempts=self._outcomes,
                missing_personas=missing,
                package_version=_package_version(),
            )

        report = SupervisorReport(
            attempts={
                index: list(outcomes)
                for index, outcomes in self._outcomes.items()
            },
            resumed_shards=tuple(resumed),
            failed_shards=tuple(sorted(self._failed)),
            missing_personas=self._missing_personas(),
        )
        return results, report

    # ------------------------------------------------------------------ #

    def _spawn(self, index: int, attempt: int) -> None:
        deadline = (
            time.monotonic() + self.policy.shard_timeout
            if self.policy.shard_timeout is not None
            else None
        )
        unit = _WorkerUnit(self.backend, attempt, deadline)
        args = (
            self.journal,
            index,
            attempt,
            self.seed,
            self.config,
            list(self.journal.shard_plan[index]),
            self.collect_obs,
            self.policy.worker_faults,
            self.shard_fn,
        )
        if self.backend == "process":
            unit.handle = multiprocessing.Process(
                target=_process_worker, args=args, daemon=True
            )
        else:
            unit.handle = threading.Thread(
                target=_thread_worker,
                args=args + (unit.cancel_event, unit.result_box, self._wake),
                daemon=True,
            )
        self._active[index] = unit
        unit.handle.start()

    def _poll(self, results: Dict[int, ShardResult]) -> None:
        for index in sorted(self._active):
            unit = self._active[index]
            # Fast channel first (thread backend): the box is only set
            # after the journal write landed, so taking it never skips
            # durability.
            boxed = unit.result_box.get("result")
            if boxed is not None:
                unit.finalize()
                del self._active[index]
                self._outcomes[index].append("ok")
                results[index] = boxed
                continue
            # Sample liveness BEFORE reading the journal: publish
            # happens-before worker exit, so alive=False with no entry
            # really is a crash, never a lost result.
            alive = unit.alive
            try:
                result = self.journal.load_shard(index)
            except CorruptShardError as exc:
                self.journal.quarantine(index)
                self._fail(index, "poison", str(exc))
                continue
            if result is not None:
                unit.finalize()
                del self._active[index]
                self._outcomes[index].append("ok")
                results[index] = result
                continue
            if not alive:
                detail = (
                    self.journal.read_error(index)
                    or f"worker exited without publishing a result "
                    f"({unit.exit_detail})"
                )
                self._fail(index, "crash", detail)
                continue
            if unit.deadline is not None and time.monotonic() > unit.deadline:
                unit.reap()
                self._fail(
                    index,
                    "hang",
                    f"no result within shard_timeout="
                    f"{self.policy.shard_timeout}s; worker reaped",
                )

    def _fail(self, index: int, kind: str, detail: str) -> None:
        from repro.core.iosim import is_enospc_text

        unit = self._active.pop(index)
        self._outcomes[index].append(kind)
        attempts_used = unit.attempt
        budget = 1 + self.policy.max_shard_retries
        policy = self.policy.on_shard_failure
        if policy == "raise":
            raise ShardFailure(index, self._outcomes[index], detail)
        if is_enospc_text(detail):
            # A full disk does not heal on a shard retry: burn no more
            # attempts (and no more disk), degrade this shard right away
            # so the run lands partial with its personas accounted.
            self._outcomes[index].append("enospc-degrade")
            self._failed.append(index)
            return
        if attempts_used >= budget:
            if policy == "degrade":
                self._failed.append(index)
                return
            raise ShardFailure(index, self._outcomes[index], detail)
        self._spawn(index, attempt=attempts_used + 1)

    def _missing_personas(self) -> Tuple[str, ...]:
        failed = set(self._failed)
        return tuple(
            name
            for index, names in enumerate(self.journal.shard_plan)
            for name in names
            if index in failed
        )


def _package_version() -> str:
    from repro import __version__

    return __version__


# ---------------------------------------------------------------------- #
# Engine
# ---------------------------------------------------------------------- #


def _run_parallel_experiment(
    seed: Seed,
    config: ExperimentConfig = ExperimentConfig(),
    workers: int = 2,
    backend: str = "process",
    collect_obs: bool = False,
    *,
    checkpoint_dir=None,
    resume: bool = False,
    policy: Optional[SupervisorPolicy] = None,
) -> Tuple[AuditDataset, SupervisorReport]:
    """Run the campaign sharded by persona under the shard supervisor.

    Internal parallel engine behind :func:`repro.core.run_campaign`.
    The exported form of the returned dataset is bit-identical to the
    serial campaign's for any worker count and either backend — see
    ``tests/integration/test_parallel_equivalence.py`` — and with
    ``collect_obs`` the merged trace's simulated-time span tree is
    byte-identical too (``tests/integration/test_obs_equivalence.py``).
    Completed shards are journaled to ``checkpoint_dir`` (an ephemeral
    directory when unset); ``resume=True`` loads valid checkpointed
    shards instead of recomputing them, which — shard artifacts being
    seed-deterministic — keeps a killed-and-resumed campaign's exports
    byte-identical to an uninterrupted run's
    (``tests/integration/test_resume_determinism.py``).

    Returns the merged dataset plus the :class:`SupervisorReport` of
    attempt history, resumed shards, and dropped personas.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    policy = policy if policy is not None else SupervisorPolicy()

    from repro.core.cache import config_fingerprint

    started = time.perf_counter()
    shards = shard_personas(scaled_roster(config.roster_scale), workers)
    plan = [[p.name for p in shard] for shard in shards]

    ephemeral_root: Optional[str] = None
    if checkpoint_dir is None:
        ephemeral_root = tempfile.mkdtemp(prefix="repro-shard-journal-")
        journal_root = ephemeral_root
    else:
        journal_root = checkpoint_dir
    journal = ShardJournal(
        journal_root, seed.root, config_fingerprint(config), plan
    )

    try:
        preloaded: Dict[int, ShardResult] = {}
        if resume:
            journal.validate_for_resume()
            preloaded = journal.load_completed()
        else:
            journal.reset()
            journal.write_manifest(
                status="running", package_version=_package_version()
            )

        supervisor = _ShardSupervisor(
            journal, seed, config, backend, collect_obs, policy
        )
        results, report = supervisor.run(preloaded)
    finally:
        if ephemeral_root is not None:
            shutil.rmtree(ephemeral_root, ignore_errors=True)

    scatter_elapsed = time.perf_counter() - started
    dataset = merge_shard_results(
        seed,
        [results[index] for index in sorted(results)],
        fault_profile=config.fault_profile,
        config=config,
        expected_personas=[name for names in plan for name in names],
        allow_partial=policy.on_shard_failure == "degrade",
    )
    dataset.timings["scatter"] = scatter_elapsed
    dataset.timings["total"] = time.perf_counter() - started

    if dataset.obs is not None:
        # Supervisor counters ride on the merged collector, but only
        # when something actually happened — a healthy run's merged
        # counters stay identical to the serial run's.
        for name, count in (
            ("supervisor.retries", report.retries),
            ("supervisor.crashes", report.outcome_count("crash")),
            ("supervisor.hangs_reaped", report.outcome_count("hang")),
            ("supervisor.poisoned_results", report.outcome_count("poison")),
            ("supervisor.shards_failed", len(report.failed_shards)),
            ("supervisor.checkpoints_loaded", len(report.resumed_shards)),
            ("supervisor.personas_missing", len(report.missing_personas)),
        ):
            if count:
                dataset.obs.inc(name, count)
    return dataset, report
