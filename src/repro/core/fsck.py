"""Cold integrity audit (and repair) of the on-disk artifact trees.

Every durable tree the reproduction writes — the content-addressed
segment store (:mod:`repro.core.segments`) and the service job tree
(:mod:`repro.service.jobs`) — already self-heals *online*: readers
re-validate envelopes and digests and quarantine or rebuild what fails.
``fsck`` is the offline counterpart: walk a tree cold (no campaign
running, no caches trusted), re-verify every artifact the same way a
paranoid first reader would, and report exactly what a storage fault —
injected by :mod:`repro.core.iosim` or delivered by a real disk — left
behind.

Verdicts, per artifact:

* **ok** — parsed, envelope-validated, digest-verified clean.
* **repaired** — wrong but reconstructible from authoritative bytes:
  a sidecar index rebuilt from its digest-verified segments, a stale or
  corrupt digest cache dropped (every file then verifies cold once), a
  torn event-log tail truncated to the last complete line.
* **quarantined** — corrupt and not reconstructible in place, but the
  surrounding machinery recovers by recomputing: a digest-mismatched
  segment, an invalid batch marker, a corrupt ``state.json``.  Moved
  to ``*.corrupt`` (never deleted, never left at a live name); the next
  run recomputes the lost work.
* **unrecoverable** — identity-bearing artifacts nothing can
  reconstruct: a corrupt store ``MANIFEST.json`` (the roster lives only
  there), a corrupt job ``spec.json``, an interior event-log line that
  no longer parses.  Reported and left in place for the operator.

Without ``repair=True`` the walk is read-only: the same verdicts are
counted and reported, with every action marked unapplied.  The report is
JSON-ready (the ``repro fsck`` CLI prints it verbatim and exits 0 iff
nothing was unrecoverable).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.checkpoint import atomic_write_bytes, quarantine_path

__all__ = ["FsckReport", "fsck_path"]


class FsckReport:
    """Accumulates per-artifact verdicts into the JSON report."""

    def __init__(self, path: Path, kind: str, repair: bool) -> None:
        self.path = path
        self.kind = kind
        self.repair = repair
        self.counts: Dict[str, int] = {
            "ok": 0,
            "repaired": 0,
            "quarantined": 0,
            "unrecoverable": 0,
        }
        self.actions: List[Dict[str, object]] = []

    def ok(self, artifact: Path) -> None:
        self.counts["ok"] += 1

    def record(
        self, verdict: str, artifact: Path, problem: str, action: str
    ) -> None:
        """One non-ok verdict; ``action`` was applied iff repairing."""
        self.counts[verdict] += 1
        try:
            name = str(artifact.relative_to(self.path))
        except ValueError:
            name = str(artifact)
        self.actions.append(
            {
                "artifact": name,
                "problem": problem,
                "action": action,
                "applied": bool(
                    self.repair and verdict in ("repaired", "quarantined")
                ),
            }
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "kind": self.kind,
            "repair": self.repair,
            **self.counts,
            "actions": self.actions,
        }


def fsck_path(
    path: Union[str, Path], *, repair: bool = False
) -> Dict[str, object]:
    """Audit one artifact tree; returns the JSON-ready report.

    Auto-detects what ``path`` holds: a segment store root (or a single
    campaign directory inside one), or a service job tree (or a single
    job directory).  Raises ``ValueError`` when the directory matches
    none of them.
    """
    root = Path(path)
    if not root.is_dir():
        raise ValueError(f"fsck target is not a directory: {root}")
    kind = _detect(root)
    if kind is None:
        raise ValueError(f"{root} is not a segment store or job tree")
    report = FsckReport(root, kind, repair)
    if kind == "segment-store":
        for campaign_dir in sorted(root.glob("campaign-seed*-*")):
            if campaign_dir.is_dir():
                _fsck_segment_campaign(campaign_dir, report)
    elif kind == "segment-campaign":
        _fsck_segment_campaign(root, report)
    elif kind == "job-tree":
        jobs_dir = root / "jobs" if (root / "jobs").is_dir() else root
        for job_dir in sorted(jobs_dir.glob("job-*")):
            if job_dir.is_dir():
                _fsck_job(job_dir, report)
    else:  # kind == "job"
        _fsck_job(root, report)
    return report.to_dict()


def _detect(root: Path) -> Optional[str]:
    if (root / "MANIFEST.json").is_file():
        return "segment-campaign"
    if any(root.glob("campaign-seed*-*/MANIFEST.json")):
        return "segment-store"
    if (root / "spec.json").is_file():
        return "job"
    if (root / "jobs").is_dir() or any(root.glob("job-*/spec.json")):
        return "job-tree"
    return None


def _load_json(path: Path) -> Optional[object]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------- #
# Segment store
# ---------------------------------------------------------------------- #


def _fsck_segment_campaign(campaign_dir: Path, report: FsckReport) -> None:
    from repro.core.segments import SEGMENT_SCHEMA_VERSION

    manifest_path = campaign_dir / "MANIFEST.json"
    manifest = _load_json(manifest_path)
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != SEGMENT_SCHEMA_VERSION
        or not isinstance(manifest.get("seed_root"), int)
        or not isinstance(manifest.get("config_fingerprint"), str)
        or not isinstance(manifest.get("roster"), list)
    ):
        # The roster (and the campaign key) live only here; a store
        # without its manifest cannot even be re-keyed.
        report.record(
            "unrecoverable",
            manifest_path,
            "store manifest unreadable or fails envelope validation",
            "none",
        )
        return
    report.ok(manifest_path)
    seed_root = manifest["seed_root"]
    fingerprint = manifest["config_fingerprint"]
    segments_dir = campaign_dir / "segments"
    batches_dir = campaign_dir / "batches"

    marker_digests: Dict[str, str] = {}  # segment file -> marker digest
    valid_batches: List[Dict[str, object]] = []
    for marker_path in sorted(batches_dir.glob("batch-*.json")):
        marker = _load_json(marker_path)
        problem = _marker_problem(
            marker, SEGMENT_SCHEMA_VERSION, seed_root, fingerprint
        )
        bad_segments: List[Path] = []
        if problem is None:
            for stream in sorted(marker["segments"]):
                ref = marker["segments"][stream]
                segment_path = segments_dir / str(ref.get("file"))
                try:
                    payload = segment_path.read_bytes()
                except OSError:
                    problem = f"segment {ref.get('file')} is missing"
                    break
                if _digest(payload) != ref.get("digest"):
                    bad_segments.append(segment_path)
                else:
                    report.ok(segment_path)
                    marker_digests[str(ref["file"])] = str(ref["digest"])
        if problem is None and not bad_segments:
            report.ok(marker_path)
            valid_batches.append(marker)
            continue
        # A batch with a bad marker or any digest-mismatched segment is
        # uncovered: quarantine every offending artifact plus the marker
        # (a marker must never point at quarantined bytes) so the next
        # run recomputes the whole batch atomically.
        for segment_path in bad_segments:
            report.record(
                "quarantined",
                segment_path,
                "segment content digest does not match its batch marker",
                "quarantine",
            )
            if report.repair:
                quarantine_path(segment_path)
        report.record(
            "quarantined",
            marker_path,
            problem or "marker references digest-mismatched segments",
            "quarantine",
        )
        index_path = batches_dir / marker_path.name.replace("batch-", "index-")
        if report.repair:
            quarantine_path(marker_path)
            if index_path.is_file():
                quarantine_path(index_path)

    for marker in valid_batches:
        _fsck_sidecar_index(
            batches_dir,
            segments_dir,
            marker,
            SEGMENT_SCHEMA_VERSION,
            seed_root,
            fingerprint,
            report,
        )

    _fsck_digest_cache(
        campaign_dir, marker_digests, SEGMENT_SCHEMA_VERSION, report
    )


def _marker_problem(
    marker: object, schema: int, seed_root: int, fingerprint: str
) -> Optional[str]:
    if not isinstance(marker, dict):
        return "marker unreadable or not a JSON object"
    if (
        marker.get("schema") != schema
        or marker.get("seed_root") != seed_root
        or marker.get("config_fingerprint") != fingerprint
    ):
        return "marker envelope does not match the store manifest"
    positions = marker.get("positions")
    if not isinstance(positions, list) or not all(
        isinstance(p, int) for p in positions
    ):
        return "marker positions are invalid"
    segments = marker.get("segments")
    if not isinstance(segments, dict) or not segments:
        return "marker has no segment references"
    for stream, ref in segments.items():
        if not isinstance(ref, dict) or not ref.get("file") or not ref.get("digest"):
            return f"marker segment reference for {stream!r} is invalid"
    return None


def _fsck_sidecar_index(
    batches_dir: Path,
    segments_dir: Path,
    marker: Dict[str, object],
    schema: int,
    seed_root: int,
    fingerprint: str,
    report: FsckReport,
) -> None:
    positions = [int(p) for p in marker["positions"]]
    index_path = batches_dir / f"index-{positions[0]:08d}.json"
    payload = _load_json(index_path)
    valid = (
        isinstance(payload, dict)
        and payload.get("schema") == schema
        and payload.get("seed_root") == seed_root
        and payload.get("config_fingerprint") == fingerprint
        and isinstance(payload.get("streams"), dict)
        and all(
            isinstance(payload["streams"].get(stream), dict)
            and payload["streams"][stream].get("file") == ref["file"]
            and payload["streams"][stream].get("digest") == ref["digest"]
            and isinstance(payload["streams"][stream].get("offsets"), dict)
            for stream, ref in marker["segments"].items()
        )
    )
    if valid:
        report.ok(index_path)
        return
    problem = (
        "sidecar index is missing"
        if not index_path.exists()
        else "sidecar index unreadable or does not match its marker"
    )
    report.record("repaired", index_path, problem, "rebuild-index")
    if not report.repair:
        return
    streams: Dict[str, Dict[str, object]] = {}
    for stream, ref in marker["segments"].items():
        segment_path = segments_dir / str(ref["file"])
        streams[stream] = {
            "file": ref["file"],
            "digest": ref["digest"],
            "offsets": _offsets_from_segment(segment_path),
        }
    atomic_write_bytes(
        index_path,
        (
            json.dumps(
                {
                    "schema": schema,
                    "seed_root": seed_root,
                    "config_fingerprint": fingerprint,
                    "positions": positions,
                    "streams": streams,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        ).encode("utf-8"),
        component="fsck",
        op="index",
    )


def _offsets_from_segment(path: Path) -> Dict[str, List[int]]:
    """Per-position byte extents, recomputed exactly as the store does."""
    offsets: Dict[str, List[int]] = {}
    with path.open("rb") as handle:
        cursor = len(handle.readline())  # header line
        for raw in handle:
            if not raw.strip():
                cursor += len(raw)
                continue
            record = json.loads(raw)
            run = offsets.setdefault(str(record["pos"]), [cursor, 0, 0])
            run[1] += len(raw)
            run[2] += 1
            cursor += len(raw)
    return offsets


def _fsck_digest_cache(
    campaign_dir: Path,
    marker_digests: Dict[str, str],
    schema: int,
    report: FsckReport,
) -> None:
    cache_path = campaign_dir / "digest-cache.json"
    if not cache_path.exists():
        return
    payload = _load_json(cache_path)
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != schema
        or not isinstance(payload.get("files"), dict)
    ):
        # The cache is pure acceleration: dropping it costs one cold
        # verify per file and can never lose data.
        report.record(
            "repaired",
            cache_path,
            "digest cache unreadable or fails envelope validation",
            "drop-digest-cache",
        )
        if report.repair:
            cache_path.unlink(missing_ok=True)
        return
    stale = []
    segments_dir = campaign_dir / "segments"
    for name, entry in payload["files"].items():
        expected = marker_digests.get(str(name))
        try:
            stat = (segments_dir / str(name)).stat()
        except OSError:
            stale.append(name)
            continue
        if (
            not isinstance(entry, dict)
            or entry.get("size") != stat.st_size
            or entry.get("mtime_ns") != stat.st_mtime_ns
            or (expected is not None and entry.get("digest") != expected)
            or expected is None
        ):
            stale.append(name)
    if not stale:
        report.ok(cache_path)
        return
    report.record(
        "repaired",
        cache_path,
        f"{len(stale)} cache entr{'y' if len(stale) == 1 else 'ies'} stale "
        "(missing file, changed size/mtime, or digest not pinned by a "
        "valid marker)",
        "prune-digest-cache",
    )
    if report.repair:
        pruned = {
            name: entry
            for name, entry in payload["files"].items()
            if name not in stale
        }
        atomic_write_bytes(
            cache_path,
            (
                json.dumps(
                    {"schema": schema, "files": pruned},
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8"),
            component="fsck",
            op="digest-cache",
        )


# ---------------------------------------------------------------------- #
# Service job tree
# ---------------------------------------------------------------------- #


def _fsck_job(job_dir: Path, report: FsckReport) -> None:
    from repro.core.campaign import CampaignSpec
    from repro.service.jobs import JOB_STATES

    spec_path = job_dir / "spec.json"
    try:
        CampaignSpec.from_json(spec_path.read_text(encoding="utf-8"))
    except Exception:  # noqa: BLE001 - any failure means corrupt
        # The spec *is* the job: without it nothing knows what to run.
        report.record(
            "unrecoverable",
            spec_path,
            "job spec unreadable or fails CampaignSpec validation",
            "none",
        )
        return
    report.ok(spec_path)

    state_path = job_dir / "state.json"
    if state_path.exists():
        state = _load_json(state_path)
        if (
            not isinstance(state, dict)
            or state.get("state") not in JOB_STATES
        ):
            # A quarantined state file leaves the job state-less, which
            # the store's recovery path re-stamps as queued — strictly
            # better than a service that cannot load the tree at all.
            report.record(
                "quarantined",
                state_path,
                "job state unreadable or names an unknown state",
                "quarantine",
            )
            if report.repair:
                quarantine_path(state_path)
        else:
            report.ok(state_path)

    _fsck_event_log(job_dir / "events.jsonl", report)

    segments_dir = job_dir / "segments"
    if segments_dir.is_dir():
        for campaign_dir in sorted(segments_dir.glob("campaign-seed*-*")):
            if campaign_dir.is_dir():
                _fsck_segment_campaign(campaign_dir, report)


def _fsck_event_log(events_path: Path, report: FsckReport) -> None:
    try:
        raw = events_path.read_bytes()
    except OSError:
        return
    if not raw:
        report.ok(events_path)
        return
    torn = not raw.endswith(b"\n")
    body = raw[: raw.rfind(b"\n") + 1] if torn else raw
    problem = None
    expected_seq = 0
    for number, line in enumerate(body.decode("utf-8").splitlines(), start=1):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            problem = f"event line {number} does not parse"
            break
        if not isinstance(record, dict) or record.get("seq") != expected_seq:
            problem = (
                f"event line {number} breaks the seq chain "
                f"(expected seq={expected_seq})"
            )
            break
        expected_seq += 1
    if problem is not None:
        # Interior damage cannot be dropped without renumbering history
        # that SSE consumers may already have replayed.
        report.record("unrecoverable", events_path, problem, "none")
        return
    if torn:
        report.record(
            "repaired",
            events_path,
            "torn trailing fragment (crash mid-append)",
            "truncate-torn-tail",
        )
        if report.repair:
            with events_path.open("rb+") as handle:
                handle.truncate(len(body))
        return
    report.ok(events_path)
