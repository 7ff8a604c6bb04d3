"""Crash-safe shard checkpoint journal.

The paper's measurement campaign ran for months against live
infrastructure, where partial failure — a crawler OOM, a hung vantage
point, a killed process — is the normal case.  The reproduction's
parallel runner originally shared that fragility: one lost worker
discarded every completed persona shard.  This module is the durability
layer underneath the shard supervisor (:mod:`repro.core.parallel`): each
completed :class:`~repro.core.parallel.ShardResult` is published to an
on-disk **journal** keyed by seed root, config fingerprint, and the
shard plan, so a campaign killed mid-run resumes from its completed
shards and — because shard artifacts are seed-deterministic — produces
exports byte-identical to an uninterrupted run.

Durability rules:

* **Atomic publish.**  Every journal write goes through
  :func:`atomic_write_bytes` (write temp → flush → ``fsync`` →
  ``os.replace``), so a crash mid-write never leaves a half-written
  payload at a journal key.  The same helper backs the dataset cache
  (:mod:`repro.core.cache`).
* **Schema-stamped entries.**  Each shard payload records the journal
  schema version, the seed root, the config fingerprint, the shard-plan
  digest, and the shard's persona names.  A stale or foreign entry —
  different campaign, different plan, older schema — never resumes; it
  raises :class:`CorruptShardError` and the supervisor quarantines it
  (rename to ``*.corrupt``) and recomputes.
* **Run-level manifest.**  ``journal.json`` records the journal key,
  the shard plan, per-shard attempt history, and the final status
  (``complete`` / ``partial`` / ``failed``), so an operator — or a CI
  chaos job — can audit what a crashed run left behind.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.iosim import (
    WRITE_KINDS,
    current_storage_faults,
    read_bytes as _seam_read_bytes,
    run_with_retries,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CorruptShardError",
    "ShardJournal",
    "atomic_write_bytes",
    "fsync_dir",
    "quarantine_path",
    "shard_plan_digest",
]

#: Bump whenever the journal payload layout changes shape; stale entries
#: fail validation and are recomputed rather than resumed.
CHECKPOINT_SCHEMA_VERSION = 1

_MANIFEST_NAME = "journal.json"


class CheckpointError(RuntimeError):
    """The journal cannot serve this run (missing or mismatched key)."""


class CorruptShardError(CheckpointError):
    """A journal entry exists but is unreadable or fails validation."""


def fsync_dir(path: Union[str, Path]) -> None:
    """Best-effort fsync of a directory.

    ``os.replace`` publishes a name by mutating the parent directory;
    until that directory's own metadata is flushed, a power loss can
    silently drop the dirent even though the file's blocks were fsynced.
    Best-effort because some filesystems refuse ``O_RDONLY`` on
    directories — durability degrades there, correctness does not.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: The error each injected write fault raises at its stage of the
#: temp → fsync → rename sequence (``slow`` only sleeps).
_WRITE_ERRORS = {
    "enospc": (errno.ENOSPC, "no space left on device"),
    "eio": (errno.EIO, "write I/O error"),
    "torn": (errno.EIO, "torn write after partial payload"),
    "fsync": (errno.EIO, "fsync failure"),
    "rename": (errno.EIO, "rename failure"),
}


def _atomic_write_attempt(target: Path, data: bytes, plan, decision) -> None:
    """One temp → fsync → rename → dir-fsync publish attempt; an injected
    ``decision`` fails it at the stage its kind names."""
    kind = decision.kind if decision is not None else None

    def injected() -> OSError:
        plan.record(f"storage.faults.injected.{kind}")
        code, what = _WRITE_ERRORS[kind]
        return OSError(code, f"injected: {what} ({target.name})")

    if kind == "slow":
        plan.record("storage.faults.injected.slow")
        time.sleep(decision.seconds)
    elif kind in ("enospc", "eio"):
        raise injected()
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if kind == "torn":
                handle.write(data[: int(len(data) * decision.fraction)])
                handle.flush()
                raise injected()
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            if kind == "fsync":
                raise injected()
        if kind == "rename":
            raise injected()
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(target.parent)


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    *,
    component: str = "storage",
    op: str = "write",
) -> None:
    """Write ``data`` to ``path`` atomically: temp → fsync → rename →
    parent-dir fsync.

    A reader can never observe a partial file at ``path`` — it sees
    either the previous content or the full new content.  The ``fsync``
    before the rename is what makes the journal crash-safe: without it a
    power loss could publish a name pointing at unwritten blocks; the
    directory fsync after it is what keeps the published *name* from
    vanishing in the same crash.

    This is the storage fault seam for writes: when a
    :class:`~repro.core.iosim.StorageFaultPlan` is installed, each
    attempt draws a decision keyed by ``(component, op)``.  Transient
    faults (EIO, fsync, rename, torn temp write) are retried by
    :func:`~repro.core.iosim.run_with_retries` with capped backoff on
    the host clock; ``ENOSPC`` propagates immediately — a full disk
    does not heal on retry, the campaign layer degrades instead.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    run_with_retries(
        component,
        op,
        WRITE_KINDS,
        lambda plan, decision: _atomic_write_attempt(target, data, plan, decision),
    )


def quarantine_path(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt artifact to ``<name>.corrupt`` — never delete it,
    never leave it under a live name.

    The rename is followed by a parent-directory fsync so a crash right
    after quarantine cannot resurrect the corrupt name.  Best-effort:
    returns the quarantine path, or ``None`` when the rename failed
    (e.g. the artifact vanished concurrently).
    """
    source = Path(path)
    target = source.with_name(source.name + ".corrupt")
    try:
        os.replace(source, target)
    except OSError:
        return None
    fsync_dir(source.parent)
    plan = current_storage_faults()
    if plan is not None:
        plan.record("storage.quarantined")
    return target


def shard_plan_digest(shard_plan: Sequence[Sequence[str]]) -> str:
    """Stable digest of a shard plan (persona names per shard, in order)."""
    payload = json.dumps([list(names) for names in shard_plan])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ShardJournal:
    """Atomic per-shard result journal for one campaign execution.

    A journal is bound to a **key**: ``(seed_root, config_fingerprint,
    shard_plan)``.  Entries written under a different key never load —
    resuming a journal against the wrong campaign raises instead of
    silently merging foreign artifacts.
    """

    def __init__(
        self,
        root: Union[str, Path],
        seed_root: int,
        config_fingerprint: str,
        shard_plan: Sequence[Sequence[str]],
    ) -> None:
        self.root = Path(root)
        self.seed_root = seed_root
        self.config_fingerprint = config_fingerprint
        self.shard_plan: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(names) for names in shard_plan
        )
        if not self.shard_plan:
            raise ValueError("shard plan must not be empty")
        self.plan_digest = shard_plan_digest(self.shard_plan)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def shard_path(self, shard_index: int) -> Path:
        return self.root / f"shard-{shard_index:04d}.pkl"

    def error_path(self, shard_index: int) -> Path:
        return self.root / f"shard-{shard_index:04d}.error"

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    # ------------------------------------------------------------------ #
    # Shard entries
    # ------------------------------------------------------------------ #

    def write_shard(self, shard_index: int, result) -> Path:
        """Atomically publish one completed shard's ``ShardResult``."""
        self._check_index(shard_index)
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "plan_digest": self.plan_digest,
            "shard_index": shard_index,
            "persona_names": list(self.shard_plan[shard_index]),
            "result": result,
        }
        path = self.shard_path(shard_index)
        atomic_write_bytes(
            path,
            pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),
            component="checkpoint",
            op="shard",
        )
        return path

    def load_shard(self, shard_index: int):
        """The checkpointed ``ShardResult``, or ``None`` when absent.

        Raises :class:`CorruptShardError` when an entry exists but is
        unreadable or stamped with a different schema version, campaign
        key, or shard plan — the caller quarantines and recomputes.
        """
        self._check_index(shard_index)
        path = self.shard_path(shard_index)
        try:
            # Corruptible seam read: a flipped bit fails the pickle load
            # or envelope validation below, and the caller quarantines
            # and recomputes — never silently resumes altered data.
            raw = _seam_read_bytes(
                path, component="checkpoint", op="shard", corruptible=True
            )
        except FileNotFoundError:
            return None
        try:
            payload = pickle.loads(raw)
        except Exception as exc:
            raise CorruptShardError(
                f"journal entry {path.name} is unreadable: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CorruptShardError(
                f"journal entry {path.name} has no payload envelope"
            )
        expected = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "plan_digest": self.plan_digest,
            "shard_index": shard_index,
            "persona_names": list(self.shard_plan[shard_index]),
        }
        for field, want in expected.items():
            got = payload.get(field)
            if got != want:
                raise CorruptShardError(
                    f"journal entry {path.name} fails validation: "
                    f"{field}={got!r}, expected {want!r}"
                )
        return payload["result"]

    def has_entry(self, shard_index: int) -> bool:
        return self.shard_path(shard_index).exists()

    def quarantine(self, shard_index: int) -> Optional[Path]:
        """Move a bad entry aside (``*.corrupt``) so a retry can publish."""
        path = self.shard_path(shard_index)
        if not path.exists():
            return None
        return quarantine_path(path)

    def load_completed(self) -> Dict[int, object]:
        """Every valid checkpointed shard, quarantining corrupt entries."""
        completed: Dict[int, object] = {}
        for index in range(len(self.shard_plan)):
            try:
                result = self.load_shard(index)
            except CorruptShardError:
                self.quarantine(index)
                continue
            if result is not None:
                completed[index] = result
        return completed

    def reset(self) -> None:
        """Drop every shard entry and error record (fresh run)."""
        if not self.root.is_dir():
            return
        for pattern in ("shard-*.pkl", "shard-*.error", "shard-*.pkl.corrupt"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Worker error records
    # ------------------------------------------------------------------ #

    def write_error(self, shard_index: int, text: str) -> None:
        atomic_write_bytes(
            self.error_path(shard_index),
            text.encode("utf-8"),
            component="checkpoint",
            op="error",
        )

    def read_error(self, shard_index: int) -> Optional[str]:
        try:
            return self.error_path(shard_index).read_text()
        except (FileNotFoundError, OSError):
            return None

    # ------------------------------------------------------------------ #
    # Run-level manifest
    # ------------------------------------------------------------------ #

    def write_manifest(
        self,
        *,
        status: str,
        attempts: Optional[Dict[int, List[str]]] = None,
        missing_personas: Sequence[str] = (),
        package_version: str = "",
    ) -> None:
        """Publish the run-level journal manifest (``journal.json``)."""
        if status not in ("running", "complete", "partial", "failed"):
            raise ValueError(f"invalid journal status: {status!r}")
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "plan_digest": self.plan_digest,
            "shard_plan": [list(names) for names in self.shard_plan],
            "status": status,
            "attempts": {
                str(index): list(outcomes)
                for index, outcomes in sorted((attempts or {}).items())
            },
            "missing_personas": list(missing_personas),
            "package_version": package_version,
        }
        atomic_write_bytes(
            self.manifest_path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
            component="checkpoint",
            op="manifest",
        )

    def read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptShardError(
                f"journal manifest {self.manifest_path} is unreadable: {exc}"
            ) from exc

    def validate_for_resume(self) -> Dict[str, object]:
        """Check the on-disk manifest matches this run's journal key."""
        manifest = self.read_manifest()
        if manifest is None:
            raise CheckpointError(
                f"cannot resume: no journal manifest at {self.manifest_path}"
            )
        for field, want in (
            ("schema", CHECKPOINT_SCHEMA_VERSION),
            ("seed_root", self.seed_root),
            ("config_fingerprint", self.config_fingerprint),
            ("plan_digest", self.plan_digest),
        ):
            got = manifest.get(field)
            if got != want:
                raise CheckpointError(
                    f"cannot resume: journal {field} is {got!r}, this run "
                    f"expects {want!r} (same seed, config, and worker count "
                    "are required to resume a checkpointed campaign)"
                )
        return manifest

    # ------------------------------------------------------------------ #

    def _check_index(self, shard_index: int) -> None:
        if not 0 <= shard_index < len(self.shard_plan):
            raise ValueError(
                f"shard index {shard_index} outside plan of "
                f"{len(self.shard_plan)} shards"
            )
