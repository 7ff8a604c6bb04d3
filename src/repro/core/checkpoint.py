"""Crash-safe publishing primitives for every durable artifact.

The segment store (:mod:`repro.core.segments`), the service job tree
(:mod:`repro.service.jobs`) and ``fsck`` (:mod:`repro.core.fsck`) all
write through this module, so one set of rules holds for every file a
campaign leaves on disk:

* **Atomic publish.**  :func:`atomic_write_bytes` writes a temp file,
  flushes and fsyncs it, renames it over the target, then fsyncs the
  directory.  A crash mid-write never leaves a half-written file at
  a live name.
* **Quarantine, never delete.**  :func:`quarantine_path` moves a
  corrupt artifact to ``<name>.corrupt`` so the evidence survives and
  the next run recomputes the lost work.

:func:`atomic_write_bytes` is also the storage fault seam for writes
(:mod:`repro.core.iosim`), and the traced end-to-end benchmark counts
its calls and fsyncs as ``core.checkpoint.*``.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.iosim import WRITE_KINDS, current_storage_faults, run_with_retries

__all__ = ["atomic_write_bytes", "fsync_dir", "quarantine_path"]


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
    before the rename is what makes the publish crash-safe: without it a
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
