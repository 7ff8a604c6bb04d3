"""Deterministic storage fault injection and the hardened I/O seam.

The campaign's durability story (the content-addressed segment store,
the service job tree) was built against
crash faults — a worker dying between a temp write and a rename.  Weeks
of continuous auditing add a different failure domain: disks fill up
(``ENOSPC``), writes and fsyncs fail transiently (``EIO``), renames
race remounts, appends tear, and cold storage rots bits.  This module
injects exactly those faults, deterministically, so every hardened
recovery path is exercised in tests and chaos CI instead of for the
first time in production — the same contract :mod:`repro.netsim.faults`
established for network faults and
:class:`~repro.core.parallel.WorkerFaultPlan` for worker faults:

* a :class:`StorageFaultProfile` names the failure mix as per-operation
  rates — a table over the fault kernel (:mod:`repro.util.faults`),
  with the same ``none`` / ``mild`` / ``harsh`` registry and ``parse``
  contract as :class:`~repro.netsim.faults.FaultProfile`;
* a :class:`StorageFaultPlan` turns the profile into concrete
  :class:`~repro.util.faults.FaultDecision`\\ s drawn from
  :class:`~repro.util.rng.StreamFamily` substreams derived from
  ``Seed.derive("storage")`` and keyed per ``(component, op)`` — the
  Nth write of a component/op pair gets the same decision in every run
  of the same seed, independent of what other components are doing;
* the seam itself is :func:`repro.core.checkpoint.atomic_write_bytes`
  plus the :func:`read_bytes` / :func:`read_text` helpers used by the
  self-healing read paths (digest cache, sidecar indexes).

**Fault semantics.**  ``slow`` sleeps on the host wall clock (storage
latency is real-world latency — it must never touch the simulated
clock, or fault profiles would change sim-time traces).  ``eio`` /
``fsync`` / ``rename`` / ``torn`` are *transient*: the seam retries
them under :data:`DEFAULT_STORAGE_RETRY` (capped exponential backoff on
the host clock), so a campaign under any profile where writes
eventually succeed exports byte-identical files to a no-fault run.
``enospc`` is *persistent-by-meaning*: a full disk does not heal on
retry, so it propagates immediately and the campaign degrades cleanly
(serial segment runs return the uncovered personas as missing; the
shard supervisor falls back to ``on_shard_failure="degrade"`` partial
semantics; the service parks the job as ``failed`` with
``reason="storage_exhausted"``).  ``corrupt_read`` flips one bit in
the first bytes of the returned payload — injected **only** at read
sites whose consumers fully re-validate (schema envelope, content
digest) and recover without changing outputs, which is
what keeps the determinism bar honest.

**Counters.**  Every plan accumulates ``storage.*`` counters
(thread-safe, process-local): ``storage.retries``,
``storage.retry_exhausted``, ``storage.enospc``,
``storage.quarantined``, and ``storage.faults.injected.<kind>``.
A segment campaign writes a non-empty snapshot into the store
manifest's ``storage`` block.  A memory-store campaign never touches
storage, so there is nothing to fault or count.

**Installation.**  A plan is a property of the harness, never of a
:class:`~repro.core.campaign.CampaignSpec`: :func:`install_storage_faults`
activates one process-globally (and, with ``propagate=True``, exports
``REPRO_STORAGE_FAULTS`` so spawned worker processes bootstrap the same
plan), the :func:`storage_faults` context manager scopes one to a test,
and the CLI's ``--storage-faults`` flag installs one for a run.
"""

from __future__ import annotations

import errno
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import sleep as _host_sleep
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.util.faults import Backoff, FaultDecision, FaultDraw, FaultTable
from repro.util.rng import Seed

__all__ = [
    "STORAGE_FAULT_KINDS",
    "STORAGE_FAULT_PROFILES",
    "DEFAULT_STORAGE_RETRY",
    "StorageFaultPlan",
    "StorageFaultProfile",
    "current_storage_faults",
    "install_storage_faults",
    "is_enospc",
    "read_bytes",
    "read_text",
    "storage_faults",
    "uninstall_storage_faults",
]

#: The injectable failure modes, in the order the decision draw checks
#: them (the order is part of the deterministic contract — reordering
#: would reshuffle every seeded fault schedule).
STORAGE_FAULT_KINDS = (
    "enospc",
    "eio",
    "fsync",
    "rename",
    "torn",
    "slow",
    "corrupt_read",
)

#: Kinds the write seam can act on (``corrupt_read`` is read-only) and
#: kinds a read site can act on (``corrupt_read`` only where the caller
#: marks the site corruptible).  A decision whose kind is outside the
#: site's set is a healthy operation — the draw is still consumed, so
#: schedules stay deterministic across sites.
WRITE_KINDS = frozenset(("enospc", "eio", "fsync", "rename", "torn", "slow"))
_READ_KINDS = frozenset(("eio", "slow"))
_CORRUPTIBLE_READ_KINDS = _READ_KINDS | {"corrupt_read"}

#: Environment variable carrying an installed plan to spawned worker
#: processes: ``"<profile>:<seed_root>"``.
_ENV_VAR = "REPRO_STORAGE_FAULTS"


@dataclass(frozen=True)
class StorageFaultProfile(FaultTable):
    """A named mix of per-operation storage fault rates.

    Rates are independent probabilities partitioning each operation
    draw: their sum must stay ≤ 1 and the remainder is a healthy
    operation.  ``slow_seconds`` bounds the host-clock sleep a ``slow``
    decision injects; ``torn_fraction`` bounds how much of a torn
    write's payload lands before the failure.

    :meth:`from_rate` splits one overall rate across the *transient*
    kinds only (2:1:1:1:3:2 for eio : fsync : rename : torn : slow :
    corrupt_read) — a disk that is deterministically full at some rate
    would make "writes eventually succeed" a coin flip, so ``enospc`` is
    opt-in via an explicit profile or :meth:`StorageFaultPlan.exhaust`.
    :meth:`parse` resolves a ``--storage-faults`` value: a name from
    :data:`STORAGE_FAULT_PROFILES`, a float rate, or ``rate:<x>``.
    """

    KINDS = STORAGE_FAULT_KINDS
    LABEL = "storage fault profile"
    SPLIT = (0.0, 0.2, 0.1, 0.1, 0.1, 0.3, 0.2)

    name: str
    enospc_rate: float = 0.0
    eio_rate: float = 0.0
    fsync_rate: float = 0.0
    rename_rate: float = 0.0
    torn_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_read_rate: float = 0.0
    slow_seconds: Tuple[float, float] = (0.0005, 0.003)
    torn_fraction: Tuple[float, float] = (0.1, 0.9)

    def parameters(self) -> Dict[str, Tuple[str, object]]:
        # A corrupt read flips a bit at a uniform position in the
        # payload's first bytes.
        return {
            "slow": ("seconds", self.slow_seconds),
            "torn": ("fraction", self.torn_fraction),
            "corrupt_read": ("fraction", (0.0, 1.0)),
        }


#: The named profiles the CLI exposes.  ``mild`` keeps a small campaign
#: comfortably completable under the default retry budget; ``harsh`` is
#: the stress setting.  Neither injects ``enospc`` — disk exhaustion is
#: a scenario (see :meth:`StorageFaultPlan.exhaust`), not a rate.
STORAGE_FAULT_PROFILES: Dict[str, StorageFaultProfile] = {
    "none": StorageFaultProfile(name="none"),
    "mild": StorageFaultProfile(
        name="mild",
        eio_rate=0.01,
        fsync_rate=0.008,
        rename_rate=0.006,
        torn_rate=0.008,
        slow_rate=0.01,
        corrupt_read_rate=0.01,
    ),
    "harsh": StorageFaultProfile(
        name="harsh",
        eio_rate=0.03,
        fsync_rate=0.02,
        rename_rate=0.015,
        torn_rate=0.025,
        slow_rate=0.03,
        corrupt_read_rate=0.04,
    ),
}
StorageFaultProfile.REGISTRY = STORAGE_FAULT_PROFILES


#: The seam-wide policy: every atomic write and seam read retries
#: transient faults under this budget before giving up.  It backs off on
#: the **host** clock — storage latency is harness latency, and must
#: never advance the simulated world — and is deliberately tiny: the
#: point is to survive transient faults, not to model disk recovery.
DEFAULT_STORAGE_RETRY = Backoff(
    max_attempts=4, base_backoff=0.002, multiplier=2.0, max_backoff=0.05
)


class StorageFaultPlan(FaultDraw):
    """Seeded per-``(component, op)`` storage fault schedule.

    Every seam operation draws one decision from the stream named by
    its component (``"segments"``, ``"jobs"``, ``"fsck"``) and
    operation (``"segment"``, ``"marker"``,
    ``"index"``, ``"digest-cache"``, ``"manifest"``, ``"state"``, …) off
    ``seed.derive("storage")``.  Because each pair owns an independent
    substream, a component's Nth operation of a kind gets the same
    decision in every run of the same seed — regardless of what other
    components interleave with it.

    Thread-safe.  Counters (:meth:`snapshot`) are process-local — faults
    injected inside forked shard workers are counted in the worker, not
    here: a worker counts only its own writes (segment batches).
    """

    def __init__(self, seed: Seed, profile: StorageFaultProfile) -> None:
        self.seed = seed
        self.profile = profile
        super().__init__(profile, seed, "storage", profile.name)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    @classmethod
    def from_profile(
        cls, profile: Union[str, StorageFaultProfile], seed: Union[int, Seed]
    ) -> "StorageFaultPlan":
        """Build a plan from a profile name/rate and a root seed."""
        resolved = StorageFaultProfile.parse(profile)
        root = seed if isinstance(seed, Seed) else Seed(seed)
        return cls(root, resolved)

    def decide(self, component: str, op: str) -> Optional[FaultDecision]:
        """The fault (if any) for this component's next ``op``."""
        with self._lock:
            return super().decide(component, op)

    def exhaust(
        self, component: str, op: Optional[str] = None, *, after: int = 0
    ) -> "StorageFaultPlan":
        """Model a filling disk: ``(component, op)`` operations beyond
        the first ``after`` fail with ``ENOSPC``, persistently.

        ``op=None`` exhausts every operation of the component.  Returns
        ``self`` so tests can chain it off the constructor.
        """
        with self._lock:
            self.override((component, op), "enospc", after=after)
        return self

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #

    def record(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a ``storage.*`` counter (thread-safe)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def snapshot(self) -> Dict[str, int]:
        """A sorted copy of the non-zero ``storage.*`` counters."""
        with self._lock:
            return {
                name: count
                for name, count in sorted(self._counters.items())
                if count
            }

    def summary(self) -> Dict[str, object]:
        """The manifest ``storage`` block: profile plus counters."""
        return {"profile": self.profile.name, "counters": self.snapshot()}


# ---------------------------------------------------------------------- #
# Plan installation (harness-global, never spec-carried)
# ---------------------------------------------------------------------- #

_active_plan: Optional[StorageFaultPlan] = None
_install_lock = threading.Lock()


def install_storage_faults(
    plan: Union[str, StorageFaultProfile, StorageFaultPlan],
    *,
    seed: Union[int, Seed] = 42,
    propagate: bool = False,
) -> StorageFaultPlan:
    """Activate a storage fault plan for this process.

    ``plan`` may be a ready :class:`StorageFaultPlan`, or a profile
    name/rate (resolved with ``seed``).  With ``propagate=True`` the
    profile name and seed are exported via ``REPRO_STORAGE_FAULTS`` so
    spawned worker processes bootstrap an equivalent plan (fork-started
    workers inherit the installed plan either way); a plan those two
    values cannot rebuild — a custom profile, an :meth:`exhaust
    <StorageFaultPlan.exhaust>` schedule — raises ``ValueError``.
    Returns the installed plan.
    """
    global _active_plan
    if not isinstance(plan, StorageFaultPlan):
        plan = StorageFaultPlan.from_profile(plan, seed)
    env = _env_value(plan) if propagate else None
    with _install_lock:
        _active_plan = plan
        if env is not None:
            os.environ[_ENV_VAR] = env
    return plan


def _env_value(plan: StorageFaultPlan) -> str:
    """The ``REPRO_STORAGE_FAULTS`` value a spawned worker rebuilds
    ``plan`` from; raises when the rebuilt plan would differ."""
    try:
        same = StorageFaultProfile.parse(plan.profile.name) == plan.profile
    except ValueError:
        same = False
    if not same or plan.overridden:
        raise ValueError(
            f"storage fault plan {plan.profile.name!r} cannot propagate: a "
            "spawned worker rebuilds its plan from the profile name and "
            "seed alone, so a custom profile or an exhaust() schedule "
            "would not reach it"
        )
    return f"{plan.profile.name}:{plan.seed.root}"


def uninstall_storage_faults() -> None:
    """Deactivate the installed plan (and its env propagation)."""
    global _active_plan
    with _install_lock:
        _active_plan = None
        os.environ.pop(_ENV_VAR, None)


def current_storage_faults() -> Optional[StorageFaultPlan]:
    """The active plan: installed in-process, or bootstrapped from the
    ``REPRO_STORAGE_FAULTS`` environment (spawned worker processes)."""
    global _active_plan
    if _active_plan is not None:
        return _active_plan
    env = os.environ.get(_ENV_VAR)
    if not env:
        return None
    profile_text, _, seed_text = env.rpartition(":")
    try:
        plan = StorageFaultPlan.from_profile(profile_text, int(seed_text))
    except (ValueError, TypeError):
        return None
    with _install_lock:
        if _active_plan is None:
            _active_plan = plan
        return _active_plan


@contextmanager
def storage_faults(
    plan: Union[str, StorageFaultProfile, StorageFaultPlan],
    *,
    seed: Union[int, Seed] = 42,
    propagate: bool = False,
):
    """Scope a plan to a ``with`` block (tests); restores the previous
    plan and environment on exit, even on error."""
    global _active_plan
    previous_plan = _active_plan
    previous_env = os.environ.get(_ENV_VAR)
    installed = install_storage_faults(plan, seed=seed, propagate=propagate)
    try:
        yield installed
    finally:
        with _install_lock:
            _active_plan = previous_plan
            if previous_env is None:
                os.environ.pop(_ENV_VAR, None)
            else:
                os.environ[_ENV_VAR] = previous_env


# ---------------------------------------------------------------------- #
# Error classification
# ---------------------------------------------------------------------- #

#: Errnos the seam treats as transient (worth a bounded retry).  ENOSPC
#: is deliberately absent: a full disk does not heal on retry.
_TRANSIENT_ERRNOS = frozenset(
    code
    for code in (
        errno.EIO,
        errno.EAGAIN,
        errno.EINTR,
        errno.EBUSY,
    )
    if code is not None
)

_ENOSPC_MARKERS = ("ENOSPC", "Errno 28", "No space left on device")


def transient_storage_error(exc: BaseException) -> bool:
    """Whether the seam should retry this error."""
    return isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS


def is_enospc(exc: BaseException) -> bool:
    """Whether an exception (or its cause chain / message) is disk
    exhaustion — matches raw ``OSError``\\ s, wrapped ones, and
    supervisor failure summaries that embed a worker traceback."""
    seen = 0
    current: Optional[BaseException] = exc
    while current is not None and seen < 8:
        if isinstance(current, OSError) and current.errno == errno.ENOSPC:
            return True
        seen += 1
        current = current.__cause__ or current.__context__
    return is_enospc_text(str(exc))


def is_enospc_text(text: str) -> bool:
    """ENOSPC detection for error *records* (supervisor failure details,
    job failure messages) where only the formatted text survives."""
    return any(marker in text for marker in _ENOSPC_MARKERS)


# ---------------------------------------------------------------------- #
# The read seam
# ---------------------------------------------------------------------- #


def _corrupt(data: bytes, fraction: float) -> bytes:
    """Flip one bit in the first bytes of ``data``.

    The flip lands inside the first 16 bytes — always inside a JSON
    document's structural prefix — so every
    consumer's envelope/schema validation deterministically rejects the
    payload and takes its recovery path, rather than silently absorbing
    an altered value.
    """
    if not data:
        return data
    offset = min(int(fraction * min(len(data), 16)), len(data) - 1)
    corrupted = bytearray(data)
    corrupted[offset] ^= 0x01
    return bytes(corrupted)


T = TypeVar("T")


def run_with_retries(
    component: str,
    op: str,
    kinds: frozenset,
    attempt: Callable[[Optional[StorageFaultPlan], Optional[FaultDecision]], T],
) -> T:
    """Run one seam operation under :data:`DEFAULT_STORAGE_RETRY`.

    Each try draws the installed plan's decision for ``(component,
    op)`` — a kind outside ``kinds`` counts as healthy — and calls
    ``attempt(plan, decision)``.  Transient errors are retried with
    capped backoff on the host clock; anything else, ``ENOSPC``
    included, propagates at once.
    """
    plan = current_storage_faults()
    retry = DEFAULT_STORAGE_RETRY
    for number in range(1, retry.max_attempts + 1):
        decision = plan.decide(component, op) if plan is not None else None
        if decision is not None and decision.kind not in kinds:
            decision = None
        try:
            return attempt(plan, decision)
        except OSError as exc:
            if plan is not None and is_enospc(exc):
                plan.record("storage.enospc")
            if not transient_storage_error(exc):
                raise
            if number == retry.max_attempts:
                if plan is not None:
                    plan.record("storage.retry_exhausted")
                raise
            if plan is not None:
                plan.record("storage.retries")
            _host_sleep(retry.backoff(number))
    raise AssertionError("unreachable: the last try returns or raises")


def read_bytes(
    path: Union[str, Path],
    *,
    component: str,
    op: str = "read",
    corruptible: bool = False,
) -> bytes:
    """Read a file through the storage fault seam.

    Injects ``eio`` (transient, retried), ``slow`` (host-clock sleep),
    and — only when the caller marks the site ``corruptible`` —
    ``corrupt_read`` bit flips.  A site is corruptible only when its
    consumer fully re-validates the payload and recovers from rejection
    without changing campaign outputs (digest cache, sidecar index).  ``FileNotFoundError`` and other
    non-transient errors propagate immediately: absence is a semantic
    result, not a fault.
    """
    target = Path(path)

    def attempt(plan, decision) -> bytes:
        if decision is not None and decision.kind == "slow":
            plan.record("storage.faults.injected.slow")
            _host_sleep(decision.seconds)
        elif decision is not None and decision.kind == "eio":
            plan.record("storage.faults.injected.eio")
            raise OSError(errno.EIO, f"injected: read I/O error ({target.name})")
        data = target.read_bytes()
        if decision is not None and decision.kind == "corrupt_read":
            plan.record("storage.faults.injected.corrupt_read")
            data = _corrupt(data, decision.fraction)
        return data

    kinds = _CORRUPTIBLE_READ_KINDS if corruptible else _READ_KINDS
    return run_with_retries(component, op, kinds, attempt)


def read_text(
    path: Union[str, Path],
    *,
    component: str,
    op: str = "read",
    corruptible: bool = False,
    encoding: str = "utf-8",
) -> str:
    """:func:`read_bytes`, decoded."""
    return read_bytes(
        path, component=component, op=op, corruptible=corruptible
    ).decode(encoding)
