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
cleanly across the process boundary (a live world holds service
closures, which do not pickle).  The merged dataset carries a fresh
``build_world(seed)`` as its generative-truth handle.

Crash safety
------------

Shards are driven by a **supervisor** rather than a bare futures loop.
Each shard attempt gets its own one-way pipe; the worker (a forked
process) sends its pickled :class:`ShardResult` or its traceback, and
the supervisor blocks on the live pipes until one is ready or the
nearest wall-clock watchdog deadline passes:

* a worker that closes its pipe without a message (it died) or sends a
  traceback is a **crash** — the shard is requeued up to
  ``max_shard_retries`` times;
* a worker that exceeds ``shard_timeout`` host seconds is **hung** —
  the watchdog kills it (SIGKILL, which no inherited signal handler
  can intercept) and requeues the shard.  The watchdog reads the host
  clock only; the simulation's :class:`~repro.util.clock.SimClock`
  never gates supervision;
* a message that does not unpickle is **poisoned** — the shard is
  requeued.

The disk is not part of that loop: the supervisor writes nothing.  A
campaign that must survive being killed runs on the segment store
(:func:`~repro.core.campaign.run_segment_campaign`), where each worker
publishes its batches as it goes and a rerun resumes from the store's
coverage.

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
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.campaign import BACKENDS, ON_SHARD_FAILURE
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
from repro.util.faults import FaultDraw, FaultTable
from repro.util.rng import Seed

if TYPE_CHECKING:
    # Imported at run time by the supervisor, so ``import repro`` (and
    # every serial campaign) does not load multiprocessing.connection.
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "BACKENDS",
    "ON_SHARD_FAILURE",
    "WORKER_FAULT_KINDS",
    "ShardFailure",
    "ShardResult",
    "SupervisorPolicy",
    "SupervisorReport",
    "WorkerFaultPlan",
    "shard_personas",
    "merge_shard_results",
]

#: Injectable worker failure modes, in decision-draw order (the order is
#: part of the deterministic contract, as in ``netsim.faults``).
WORKER_FAULT_KINDS = ("crash", "hang", "poison")

#: Exit code an injected worker crash dies with.
_CRASH_EXIT_CODE = 3

#: Bytes a poisoned worker sends instead of a valid pickle payload.
_POISON_BYTES = b"poisoned shard result (injected by WorkerFaultPlan)"

#: Read ends of every live shard pipe in this process, across all
#: supervisors.  A forked worker closes its copies first: a read end
#: left open in a child keeps that pipe readable after its supervisor
#: dies, and a worker sending into it would block forever instead of
#: failing and exiting.
_LIVE_READERS: Set[Connection] = set()


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
class _WorkerFaultRates(FaultTable):
    """The worker domain's rate table (no registry: callers pass rates)."""

    KINDS = WORKER_FAULT_KINDS

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    poison_rate: float = 0.0
    hang_seconds: float = 3600.0


class WorkerFaultPlan(FaultDraw):
    """Seeded per-``(shard, attempt)`` worker fault schedule.

    Mirrors :class:`~repro.netsim.faults.FaultPlan` one level up the
    stack: where that plan fails individual *requests*, this one fails
    whole *workers* — crash before sending a result, hang past the
    watchdog, or send a poisoned (unreadable) result.  Decisions are
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
        rates = _WorkerFaultRates(crash_rate, hang_rate, poison_rate, hang_seconds)
        super().__init__(rates, seed, "supervisor", "worker-faults")
        self.hang_seconds = hang_seconds
        for (shard_index, attempt), kind in (schedule or {}).items():
            self.override((int(shard_index), int(attempt)), kind)

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


@dataclass
class SupervisorReport:
    """What the supervisor did to get (or fail to get) every shard."""

    #: Outcome history per shard, in attempt order: ``"ok"``,
    #: ``"crash"``, ``"hang"``, ``"poison"``, or ``"enospc-degrade"``.
    attempts: Dict[int, List[str]] = field(default_factory=dict)
    #: Shards dropped under ``on_shard_failure="degrade"``.
    failed_shards: Tuple[int, ...] = ()
    #: Personas of the failed shards, in plan order.
    missing_personas: Tuple[str, ...] = ()

    @property
    def retries(self) -> int:
        """Attempts beyond each shard's first."""
        return sum(max(0, len(outcomes) - 1) for outcomes in self.attempts.values())

    def outcome_count(self, kind: str) -> int:
        return sum(
            outcomes.count(kind) for outcomes in self.attempts.values()
        )


def _fault_kind(
    fault_plan: Optional[WorkerFaultPlan], shard_index: int, attempt: int
) -> Optional[str]:
    """The injected fault kind for this shard attempt, if any."""
    decision = fault_plan.decide(shard_index, attempt) if fault_plan else None
    return decision.kind if decision is not None else None


def _shard_worker(
    conn: Connection,
    shard_index: int,
    attempt: int,
    seed: Seed,
    config: ExperimentConfig,
    persona_names: Sequence[str],
    collect_obs: bool,
    fault_plan: Optional[WorkerFaultPlan],
    shard_fn,
) -> None:
    """Forked worker body: run one shard attempt, send the outcome over
    ``conn``, close it.

    The one message is the pickled ``("result", ShardResult)`` or
    ``("error", traceback)``; an injected poison sends bytes that do not
    unpickle, an injected crash exits without sending, and an injected
    hang sleeps until the watchdog kills the process.

    The worker first closes the pipe read ends it inherited (see
    ``_LIVE_READERS``) and calls ``gc.freeze()``: a forked child
    inherits the parent's whole heap, and without the freeze every
    collection in the child (``run_segment_shard`` collects after each
    batch) walks all of it again.  Freezing moves the inherited objects
    to the permanent generation, so collections see only what the shard
    allocates, and the untouched pages stay shared with the parent (the
    ``gc`` docs recommend this for fork without exec).
    """
    for reader in list(_LIVE_READERS):
        reader.close()
    gc.freeze()
    try:
        kind = _fault_kind(fault_plan, shard_index, attempt)
        if kind == "crash":
            os._exit(_CRASH_EXIT_CODE)
        if kind == "hang":
            time.sleep(fault_plan.hang_seconds)
        try:
            result = shard_fn(shard_index, seed, config, persona_names, collect_obs)
            message = (
                _POISON_BYTES
                if kind == "poison"
                else pickle.dumps(("result", result), pickle.HIGHEST_PROTOCOL)
            )
        except BaseException:
            message = pickle.dumps(("error", traceback.format_exc()))
        conn.send_bytes(message)
    except OSError:
        pass  # the supervisor closed its end: it is gone
    finally:
        conn.close()


class _WorkerUnit:
    """One live shard attempt: its process, result pipe, and deadline."""

    def __init__(self, attempt: int, deadline: Optional[float]):
        self.attempt = attempt
        self.deadline = deadline
        self.reader: Optional[Connection] = None
        self.process: Optional[BaseProcess] = None

    def start(self, args: tuple) -> None:
        # Pinned to fork: workers inherit the parent's heap (the shared
        # skill catalog, then gc.freeze()) and its live pipe readers.
        context = multiprocessing.get_context("fork")
        self.reader, writer = context.Pipe(duplex=False)
        _LIVE_READERS.add(self.reader)
        self.process = context.Process(
            target=_shard_worker, args=(writer,) + args, daemon=True
        )
        self.process.start()
        # The child holds the only write end now, so its exit is EOF
        # here, and no later fork inherits this pipe's writer.
        writer.close()

    def _close_reader(self) -> None:
        _LIVE_READERS.discard(self.reader)
        self.reader.close()

    def finish(self) -> None:
        """Collect a worker whose message (or EOF) has been read."""
        self._close_reader()
        self.process.join(timeout=5.0)

    def reap(self) -> None:
        """Kill a hung attempt.  SIGKILL, not SIGTERM: a worker forked
        from a process with a SIGTERM handler (``repro serve`` sets one)
        inherits it and would survive ``terminate()``."""
        self._close_reader()
        self.process.kill()
        self.process.join(timeout=5.0)


class _ShardSupervisor:
    """Drives every shard to completion (or policy-sanctioned failure).

    Each attempt sends its outcome over its own pipe, and the loop
    blocks in :func:`multiprocessing.connection.wait` on the live
    readers until one is ready or the nearest watchdog deadline passes.
    """

    def __init__(
        self,
        shard_plan: Sequence[Sequence[str]],
        seed: Seed,
        config: ExperimentConfig,
        collect_obs: bool,
        policy: SupervisorPolicy,
        *,
        shard_fn=_run_shard,
    ) -> None:
        self.shard_plan = [list(names) for names in shard_plan]
        self.seed = seed
        self.config = config
        self.collect_obs = collect_obs
        self.policy = policy
        self.shard_fn = shard_fn
        self._active: Dict[int, _WorkerUnit] = {}
        self._outcomes: Dict[int, List[str]] = {
            index: [] for index in range(len(self.shard_plan))
        }
        self._failed: List[int] = []

    # ------------------------------------------------------------------ #

    def run(self) -> Tuple[Dict[int, ShardResult], SupervisorReport]:
        from multiprocessing.connection import wait

        results: Dict[int, ShardResult] = {}
        try:
            for index in range(len(self.shard_plan)):
                self._spawn(index, attempt=1)
            while self._active:
                readers = {unit.reader: i for i, unit in self._active.items()}
                ready = wait(list(readers), timeout=self._timeout())
                for index in sorted(readers[conn] for conn in ready):
                    self._collect(index, results)
                self._reap_overdue()
        finally:
            for unit in self._active.values():
                unit.reap()
            self._active.clear()

        report = SupervisorReport(
            attempts={
                index: list(outcomes)
                for index, outcomes in self._outcomes.items()
            },
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
        unit = _WorkerUnit(attempt, deadline)
        self._active[index] = unit
        unit.start(
            (
                index,
                attempt,
                self.seed,
                self.config,
                self.shard_plan[index],
                self.collect_obs,
                self.policy.worker_faults,
                self.shard_fn,
            )
        )

    def _timeout(self) -> Optional[float]:
        """Seconds until the nearest watchdog deadline (``None``: no
        deadline, block until a worker sends or exits)."""
        deadlines = [
            unit.deadline
            for unit in self._active.values()
            if unit.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _collect(self, index: int, results: Dict[int, ShardResult]) -> None:
        """Read a ready worker's one message (or EOF) and account for it."""
        unit = self._active[index]
        try:
            message = unit.reader.recv_bytes()
        except EOFError:
            unit.finish()
            self._fail(
                index,
                "crash",
                "worker exited without sending a result "
                f"(worker exit code {unit.process.exitcode})",
            )
            return
        unit.finish()
        try:
            tag, payload = pickle.loads(message)
        except Exception as exc:
            self._fail(index, "poison", f"worker sent an unreadable result: {exc!r}")
            return
        if tag == "error":
            self._fail(index, "crash", payload)
            return
        del self._active[index]
        self._outcomes[index].append("ok")
        results[index] = payload

    def _reap_overdue(self) -> None:
        now = time.monotonic()
        for index in sorted(self._active):
            unit = self._active[index]
            if unit.deadline is not None and now > unit.deadline:
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
            for index, names in enumerate(self.shard_plan)
            for name in names
            if index in failed
        )


# ---------------------------------------------------------------------- #
# Engine
# ---------------------------------------------------------------------- #


def _run_parallel_experiment(
    seed: Seed,
    config: ExperimentConfig = ExperimentConfig(),
    workers: int = 2,
    collect_obs: bool = False,
    *,
    policy: Optional[SupervisorPolicy] = None,
) -> Tuple[AuditDataset, SupervisorReport]:
    """Run the campaign sharded by persona under the shard supervisor.

    Internal parallel engine behind :func:`repro.core.run_campaign`.
    The exported form of the returned dataset is bit-identical to the
    serial campaign's for any worker count — see
    ``tests/integration/test_parallel_equivalence.py`` — and with
    ``collect_obs`` the merged trace's simulated-time span tree is
    byte-identical too (``tests/integration/test_obs_equivalence.py``).
    Nothing is written to disk.

    Returns the merged dataset plus the :class:`SupervisorReport` of
    attempt history and dropped personas.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    policy = policy if policy is not None else SupervisorPolicy()

    started = time.perf_counter()
    shards = shard_personas(scaled_roster(config.roster_scale), workers)
    plan = [[p.name for p in shard] for shard in shards]

    supervisor = _ShardSupervisor(plan, seed, config, collect_obs, policy)
    results, report = supervisor.run()

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
            ("supervisor.personas_missing", len(report.missing_personas)),
        ):
            if count:
                dataset.obs.inc(name, count)
    return dataset, report
