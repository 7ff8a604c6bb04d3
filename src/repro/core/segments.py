"""Append-only, content-addressed segment store for campaign artifacts.

The in-memory :class:`~repro.core.experiment.AuditDataset` keeps every
capture, bid, and request log of every persona resident at once, which
caps the roster at RAM.  This module is the streaming alternative: a
campaign writes each persona batch's artifacts as **segments** — JSONL
files, one per event stream — under a campaign directory keyed by seed
root and config fingerprint, then discards the batch.  Analyses and
exports consume the segments as roster-ordered event streams through a
bounded-memory k-way merge, so a 100k–1M persona roster completes with
flat memory.

Layout::

    <root>/campaign-seed<seed_root>-<fingerprint>/
        MANIFEST.json                      # campaign key + roster + status
        batches/batch-<firstpos>.json      # coverage marker per batch
        segments/<stream>-<firstpos>-<digest12>.jsonl

Durability and reuse rules (shared with :mod:`repro.core.checkpoint`):

* every file is published through :func:`atomic_write_bytes`, so a
  crash mid-write never leaves a half-written segment at a live name;
* every segment and marker is stamped with the segment schema version,
  the seed root, and the config fingerprint — foreign or stale entries
  never load;
* segment files are **content-addressed**: the file name embeds the
  sha256 of the file bytes, and the batch marker records the full
  digest per segment.  A batch counts as *covered* only when its marker
  validates and every referenced segment's digest matches, which is
  what gives persona-granularity reuse and resume: re-running the same
  (seed, config) campaign skips covered personas, and a campaign killed
  mid-run resumes from its completed batches.

I/O fast path
-------------

Three structures keep reads, reuse, and verification off the
O(campaign-size) cost curve:

* **Batch adoption (zero-copy reuse).**  :meth:`SegmentStore.adopt_batch`
  transfers a whole validated batch from another store of the same seed
  and roster (the timeline layer's previous epoch) by hard-linking the
  already-content-addressed segment files (``os.link``; byte copy
  through :func:`atomic_write_bytes` when the filesystem refuses links)
  and publishing a fresh marker that records the origin store's config
  fingerprint — no segment is parsed or re-serialized.  Record-level
  copy survives only for batches that straddle an epoch's dirty set.
  Adoption publishes ``segments.reuse.linked`` /
  ``segments.reuse.copied`` (files) counters on ``store.obs``; the
  record-level path counts ``segments.reuse.records``.
* **Offset-indexed point reads.**  Each batch writes a sidecar index
  (``batches/index-<firstpos>.json``) mapping roster position to the
  per-stream ``[byte offset, byte length, record count]`` of that
  persona's contiguous run of lines.  The sidecar is content-addressed
  against the marker (it names each segment file and its full digest)
  and is **rebuildable**: a missing, stale, or foreign index is
  regenerated from the segment file and rewritten, never an error.
  :meth:`SegmentStore.stream_records_for` seeks and parses one
  persona's lines instead of the whole file.
* **Cached digest verification.**  Scans verify every referenced
  segment's sha256.  Verified digests are cached in
  ``digest-cache.json`` next to the manifest, keyed by
  ``(file name, size, mtime_ns)``, so unchanged files are never
  re-hashed — across scans, processes, and service restarts.  Hits and
  misses count as ``segments.digest_cache.hits`` / ``.misses``.  Any
  mismatch clears the cache and switches the store handle to cold-path
  full hashing for every subsequent verification; the mismatching
  segment file is quarantined to ``*.corrupt`` with a warning,
  matching the marker contract.  ``repro fsck`` re-hashes every
  segment itself, never through the cache.

Streams
-------

Eight streams cover everything the export and analysis layers consume:
``personas`` (roster metadata, loaded slots, install failures, DSAR
missing-file verdicts), ``bids``, ``ads``, ``flows`` (per-skill capture
flows with their DNS-or-SNI domain), ``sync`` (cookie-sync events),
``dsar`` (per-request advertising interests), ``audio`` (audio-ad
segments), and ``policy`` (per-skill policy crawl outcomes).  Records
carry the roster position (``pos``) of their persona; within a persona
they keep collection order, so the merged stream reproduces exactly the
iteration order of the in-memory dataset — which is what keeps
segment-store exports byte-identical to the in-memory path.

Per-campaign work, once
-----------------------

A campaign builds one private world per batch, but the seed-only skill
catalog inside it is the same for every batch: the campaign runner
(:func:`~repro.core.campaign.run_segment_positions`) builds the base,
unchurned catalog once and passes it through
:func:`write_segment_batch` / :func:`run_segment_shard` into every
batch's world, which still applies the epoch's ``catalog_churn`` on
top.  Records are encoded by one module-level JSON encoder, and every
read — full-segment iteration and indexed point reads alike — decodes
lines through one helper, :func:`_decode_lines`.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.checkpoint import atomic_write_bytes, quarantine_path
from repro.core.iosim import read_text as _seam_read_text
from repro.obs import NULL_OBS
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentRunner,
    PersonaArtifacts,
    config_fingerprint,
)
from repro.core.personas import positions_by_name, scaled_roster
from repro.core.profiling import persona_observations
from repro.core.syncing import persona_sync_events
from repro.core.world import build_config_world
from repro.data.skill_catalog import SkillCatalog
from repro.util.rng import Seed

__all__ = [
    "SEGMENT_SCHEMA_VERSION",
    "STREAMS",
    "SegmentError",
    "CorruptSegmentError",
    "PositionsCoveredError",
    "SegmentStore",
    "persona_stream_records",
    "write_dataset_segments",
    "write_segment_batch",
    "run_segment_shard",
]

#: Bump whenever the segment record layout changes shape; stale entries
#: fail validation and are recomputed rather than reused.
SEGMENT_SCHEMA_VERSION = 1

_log = logging.getLogger(__name__)

#: Event streams, in export order.
STREAMS = (
    "personas",
    "bids",
    "ads",
    "flows",
    "sync",
    "dsar",
    "audio",
    "policy",
)

_MANIFEST_NAME = "MANIFEST.json"
_DIGEST_CACHE_NAME = "digest-cache.json"


class SegmentError(RuntimeError):
    """The segment store cannot serve this campaign."""


class CorruptSegmentError(SegmentError):
    """A segment or marker exists but fails validation."""


class PositionsCoveredError(SegmentError, ValueError):
    """A batch write targets roster positions that are already covered.

    Subclasses ``ValueError`` (it is an invalid-argument condition) but
    is separately catchable: a supervisor retry racing a reaped-but-
    still-running attempt loses this race benignly — segment content is
    seed-deterministic, so whichever writer won published identical
    bytes."""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Canonical record encoding: one reused encoder (``json.dumps`` with
#: these arguments builds a fresh ``JSONEncoder`` per call; the other
#: defaults are equal, so the bytes are identical).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: One decoder for every segment line.  ``json.loads`` dispatches to a
#: default decoder per call, and ``decode`` runs two whitespace regexes
#: around the scan; a canonical line needs neither.
_decoder = json.JSONDecoder()
_decode = _decoder.decode
_scan_once = _decoder.scan_once


def _decode_lines(lines: Iterable[str]) -> Iterator[dict]:
    """Decode segment record lines, one JSON value per line.

    The one decode path for full-segment reads and indexed point reads.
    A canonical line (one value, then its newline or the end) is scanned
    directly; every other line goes through ``decode``, which is exactly
    ``json.loads``: blank lines are skipped, and a line holding anything
    but one JSON value raises :class:`json.JSONDecodeError`.
    """
    for line in lines:
        try:
            value, end = _scan_once(line, 0)
        except StopIteration:  # blank, leading whitespace, or not JSON
            if line and not line.isspace():
                yield _decode(line)
            continue
        if line[end:] not in ("", "\n"):
            value = _decode(line)
        yield value


@dataclass(frozen=True)
class _BatchEntry:
    """One validated coverage marker and its segment files."""

    marker_path: Path
    positions: Tuple[int, ...]
    #: stream -> (segment path, record count); streams with no records
    #: in this batch are absent.
    segments: Dict[str, Tuple[Path, int]]
    #: stream -> full sha256 from the marker (what the sidecar index is
    #: validated against).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Config fingerprint stamped inside adopted segment files (None for
    #: batches this store wrote itself).
    origin_fingerprint: Optional[str] = None

    @property
    def first(self) -> int:
        return self.positions[0]

    @property
    def last(self) -> int:
        return self.positions[-1]


class SegmentStore:
    """Columnar event-stream store for one campaign ``(seed, config)``.

    The store is keyed by seed root plus config fingerprint (the
    campaign directory name embeds both), with the roster recorded in
    the manifest.  All
    mutation goes through :meth:`write_batch`; reads are streaming.
    """

    def __init__(
        self,
        root: Union[str, Path],
        seed_root: int,
        config_fingerprint: str,
        roster: Sequence[str],
    ) -> None:
        self.root = Path(root)
        self.seed_root = seed_root
        self.config_fingerprint = config_fingerprint
        self.roster: Tuple[str, ...] = tuple(roster)
        if not self.roster:
            raise ValueError("segment store roster must not be empty")
        if len(set(self.roster)) != len(self.roster):
            raise ValueError("segment store roster has duplicate personas")
        self.campaign_dir = (
            self.root / f"campaign-seed{seed_root}-{config_fingerprint}"
        )
        self.segments_dir = self.campaign_dir / "segments"
        self.batches_dir = self.campaign_dir / "batches"
        #: Observability sink for ``segments.reuse.*`` and
        #: ``segments.digest_cache.*`` counters; rebind to a live
        #: :class:`~repro.obs.ObsCollector` to record them.
        self.obs = NULL_OBS
        self._scan_cache: Optional[List[_BatchEntry]] = None
        self._pos_entry: Optional[Dict[int, _BatchEntry]] = None
        self._index_cache: Dict[int, Dict[str, Dict[str, list]]] = {}
        self._digest_cache: Optional[Dict[str, dict]] = None
        self._digest_cache_dirty = False
        #: Set after any digest mismatch: the cache is no longer trusted
        #: and every later verification takes the full-hash cold path.
        self._digest_cache_distrusted = False

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #

    @property
    def manifest_path(self) -> Path:
        return self.campaign_dir / _MANIFEST_NAME

    def write_manifest(
        self, status: str, extras: Optional[Dict[str, object]] = None
    ) -> None:
        """Publish the campaign manifest.

        ``extras`` merges additional top-level fields into the payload
        (e.g. the timeline layer's ``timeline.personas_reused`` /
        ``timeline.personas_recomputed`` counters); they may not shadow
        the fixed key fields.
        """
        if status not in ("running", "partial", "complete"):
            raise ValueError(f"invalid store status: {status!r}")
        payload = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "roster": list(self.roster),
            "streams": list(STREAMS),
            "status": status,
            "package_version": _package_version(),
        }
        if extras:
            shadowed = set(extras) & set(payload)
            if shadowed:
                raise ValueError(
                    f"manifest extras shadow fixed fields: {sorted(shadowed)}"
                )
            payload.update(extras)
        atomic_write_bytes(
            self.manifest_path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            component="segments",
            op="manifest",
        )

    def read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptSegmentError(
                f"store manifest {self.manifest_path} is unreadable: {exc}"
            ) from exc

    def status(self) -> Optional[str]:
        """The manifest's campaign status (``"running"`` / ``"partial"``
        / ``"complete"``), or ``None`` before any manifest exists.  The
        service layer reads this to classify a finished segment job."""
        manifest = self.read_manifest()
        if manifest is None:
            return None
        value = manifest.get("status")
        return value if isinstance(value, str) else None

    def manifest_matches(self) -> bool:
        """True when a manifest exists and matches this campaign's key."""
        try:
            manifest = self.read_manifest()
        except CorruptSegmentError:
            return False
        if manifest is None:
            return False
        return (
            manifest.get("schema") == SEGMENT_SCHEMA_VERSION
            and manifest.get("seed_root") == self.seed_root
            and manifest.get("config_fingerprint") == self.config_fingerprint
            and manifest.get("roster") == list(self.roster)
        )

    def ensure_manifest(self) -> None:
        """Adopt a matching manifest (resume/reuse) or publish a fresh one."""
        if not self.manifest_matches():
            self.write_manifest("running")

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def write_batch(
        self,
        positions: Sequence[int],
        records_by_stream: Dict[str, List[dict]],
    ) -> Path:
        """Atomically publish one persona batch's records.

        ``positions`` are the roster positions the batch covers (need
        not be contiguous); every record must carry a ``pos`` from that
        set.  Per stream, records are stored sorted by ``pos`` (stable,
        preserving within-persona order).  Segment files land first,
        the coverage marker last — a crash between the two leaves only
        unreferenced (and therefore invisible) segment files behind.
        """
        ordered = sorted(set(int(p) for p in positions))
        if not ordered:
            raise ValueError("batch must cover at least one roster position")
        if ordered != sorted(set(positions)) or len(set(positions)) != len(
            list(positions)
        ):
            raise ValueError(f"duplicate positions in batch: {positions}")
        for pos in ordered:
            if not 0 <= pos < len(self.roster):
                raise ValueError(
                    f"position {pos} outside roster of {len(self.roster)}"
                )
        already = self.covered_positions() & set(ordered)
        if already:
            raise PositionsCoveredError(
                f"positions already covered by this store: {sorted(already)}"
            )
        unknown = set(records_by_stream) - set(STREAMS)
        if unknown:
            raise ValueError(f"unknown streams: {sorted(unknown)}")

        batch_positions = set(ordered)
        segments: Dict[str, Dict[str, object]] = {}
        index_streams: Dict[str, Dict[str, object]] = {}
        for stream in STREAMS:
            records = records_by_stream.get(stream, [])
            stray = [
                r["pos"] for r in records if r.get("pos") not in batch_positions
            ]
            if stray:
                raise ValueError(
                    f"stream {stream!r} records outside batch positions: "
                    f"{sorted(set(stray))}"
                )
            if not records:
                continue
            records = sorted(records, key=lambda r: r["pos"])  # stable
            header = {
                "schema": SEGMENT_SCHEMA_VERSION,
                "seed_root": self.seed_root,
                "config_fingerprint": self.config_fingerprint,
                "stream": stream,
                "positions": ordered,
                "count": len(records),
            }
            header_line = _dumps(header)
            lines = [header_line]
            # Records of one pos are a contiguous run of lines (sorted
            # above); track each run's byte extent for the sidecar index.
            offsets: Dict[str, List[int]] = {}
            cursor = len(header_line.encode("utf-8")) + 1
            for record in records:
                line = _dumps(record)
                lines.append(line)
                span = len(line.encode("utf-8")) + 1
                run = offsets.setdefault(str(record["pos"]), [cursor, 0, 0])
                run[1] += span
                run[2] += 1
                cursor += span
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            digest = _digest(payload)
            name = f"{stream}-{ordered[0]:08d}-{digest[:12]}.jsonl"
            atomic_write_bytes(
                self.segments_dir / name,
                payload,
                component="segments",
                op="segment",
            )
            self._cache_verified_digest(self.segments_dir / name, digest)
            segments[stream] = {
                "file": name,
                "digest": digest,
                "count": len(records),
            }
            index_streams[stream] = {
                "file": name,
                "digest": digest,
                "offsets": offsets,
            }

        self._write_index(ordered[0], ordered, index_streams)
        marker = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "positions": ordered,
            "segments": segments,
        }
        marker_path = self.batches_dir / f"batch-{ordered[0]:08d}.json"
        atomic_write_bytes(
            marker_path,
            (json.dumps(marker, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            component="segments",
            op="marker",
        )
        self._flush_digest_cache()
        self.invalidate_scan()
        return marker_path

    def adopt_batch(self, prev_store: "SegmentStore", entry) -> Dict[str, int]:
        """Zero-copy transfer of one validated batch from ``prev_store``.

        The segment files are already content-addressed (their digests
        are pinned by ``prev_store``'s marker, which a ``_scan`` has
        verified), so reuse needs no parse and no re-serialization:
        each file is hard-linked into this store (``os.link``), falling
        back to a byte copy through :func:`atomic_write_bytes` on
        filesystems that refuse cross-store links.  A fresh marker is
        published recording the origin store's config fingerprint —
        adopted segment *headers* carry the origin fingerprint, and
        reads validate them against it.

        The caller owns dirty-set logic: every position in ``entry``
        must be wanted as-is.  Returns ``{"linked": n, "copied": n}``
        file counts, also published as ``segments.reuse.linked`` /
        ``segments.reuse.copied`` obs counters.
        """
        if prev_store.seed_root != self.seed_root:
            raise ValueError(
                "adopt_batch requires matching seed roots: "
                f"{prev_store.seed_root} vs {self.seed_root}"
            )
        if prev_store.roster != self.roster:
            raise ValueError("adopt_batch requires identical rosters")
        already = self.covered_positions() & set(entry.positions)
        if already:
            raise PositionsCoveredError(
                f"positions already covered by this store: {sorted(already)}"
            )
        counts = {"linked": 0, "copied": 0}
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        segments: Dict[str, Dict[str, object]] = {}
        for stream in STREAMS:
            if stream not in entry.segments:
                continue
            source, count = entry.segments[stream]
            digest = entry.digests.get(stream, "")
            target = self.segments_dir / source.name
            try:
                os.link(source, target)
                counts["linked"] += 1
                self.obs.inc("segments.reuse.linked")
            except FileExistsError:
                # Content-addressed name: an existing live file at this
                # name holds identical bytes (atomic publishes only).
                counts["linked"] += 1
                self.obs.inc("segments.reuse.linked")
            except OSError:
                atomic_write_bytes(
                    target,
                    source.read_bytes(),
                    component="segments",
                    op="segment",
                )
                counts["copied"] += 1
                self.obs.inc("segments.reuse.copied")
            if digest:
                self._cache_verified_digest(target, digest)
            segments[stream] = {
                "file": source.name,
                "digest": digest,
                "count": count,
            }
        # The sidecar index is position-sized, not record-sized; reusing
        # the origin's (rebuilt from the segment if it was missing) and
        # re-stamping it under this store's envelope stays zero-parse
        # for the segment files themselves.
        index_streams: Dict[str, Dict[str, object]] = {}
        prev_index = prev_store._load_index(entry)
        for stream, ref in segments.items():
            offsets = prev_index.get(stream, {}).get("offsets")
            if offsets is not None:
                index_streams[stream] = {
                    "file": ref["file"],
                    "digest": ref["digest"],
                    "offsets": offsets,
                }
        self._write_index(entry.first, list(entry.positions), index_streams)
        marker = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "positions": list(entry.positions),
            "segments": segments,
            "origin": {
                "config_fingerprint": (
                    entry.origin_fingerprint or prev_store.config_fingerprint
                )
            },
        }
        marker_path = self.batches_dir / f"batch-{entry.first:08d}.json"
        atomic_write_bytes(
            marker_path,
            (json.dumps(marker, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            component="segments",
            op="marker",
        )
        self._flush_digest_cache()
        self.invalidate_scan()
        return counts

    # ------------------------------------------------------------------ #
    # Coverage / validation
    # ------------------------------------------------------------------ #

    def invalidate_scan(self) -> None:
        """Drop every cached view of on-disk state (coverage, position
        lookup, loaded sidecar indexes).  Callers that know another
        handle or process wrote batches use this instead of poking the
        private caches."""
        self._scan_cache = None
        self._pos_entry = None
        self._index_cache.clear()

    def covered_positions(self) -> Set[int]:
        """Roster positions with validated, content-addressed coverage."""
        return {
            pos for entry in self._scan() for pos in entry.positions
        }

    def batches(self) -> List[_BatchEntry]:
        """The validated coverage entries, in first-position order.

        The timeline layer iterates these to decide, batch by batch,
        between zero-copy :meth:`adopt_batch` and record-level copy."""
        return list(self._scan())

    def _scan(self) -> List[_BatchEntry]:
        """Validate every coverage marker; quarantine the broken ones.

        A marker survives only when its envelope matches this store's
        key, its positions are inside the roster and disjoint from
        previously accepted batches, and every referenced segment file
        exists with a matching content digest.  Anything else is moved
        to ``*.corrupt`` and treated as uncovered — the campaign simply
        recomputes those personas.
        """
        if self._scan_cache is not None:
            return self._scan_cache
        entries: List[_BatchEntry] = []
        seen: Set[int] = set()
        if self.batches_dir.is_dir():
            for marker_path in sorted(self.batches_dir.glob("batch-*.json")):
                entry = self._validate_marker(marker_path, seen)
                if entry is None:
                    _quarantine(marker_path)
                    continue
                seen.update(entry.positions)
                entries.append(entry)
        self._flush_digest_cache()
        self._scan_cache = entries
        self._pos_entry = {
            pos: entry for entry in entries for pos in entry.positions
        }
        return entries

    def _validate_marker(
        self, marker_path: Path, covered: Set[int]
    ) -> Optional[_BatchEntry]:
        try:
            marker = json.loads(marker_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(marker, dict):
            return None
        if (
            marker.get("schema") != SEGMENT_SCHEMA_VERSION
            or marker.get("seed_root") != self.seed_root
            or marker.get("config_fingerprint") != self.config_fingerprint
        ):
            return None
        positions = marker.get("positions")
        if (
            not isinstance(positions, list)
            or not positions
            or any(
                not isinstance(p, int) or not 0 <= p < len(self.roster)
                for p in positions
            )
            or sorted(set(positions)) != positions
            or covered & set(positions)
        ):
            return None
        origin = marker.get("origin")
        origin_fingerprint: Optional[str] = None
        if origin is not None:
            if not isinstance(origin, dict) or not isinstance(
                origin.get("config_fingerprint"), str
            ):
                return None
            origin_fingerprint = origin["config_fingerprint"]
        segments: Dict[str, Tuple[Path, int]] = {}
        digests: Dict[str, str] = {}
        refs = marker.get("segments")
        if not isinstance(refs, dict):
            return None
        for stream, ref in refs.items():
            if stream not in STREAMS or not isinstance(ref, dict):
                return None
            path = self.segments_dir / str(ref.get("file"))
            expected = ref.get("digest")
            if not isinstance(expected, str) or not expected:
                return None
            if not self._verify_segment(path, expected):
                return None
            segments[stream] = (path, int(ref.get("count", 0)))
            digests[stream] = expected
        return _BatchEntry(
            marker_path=marker_path,
            positions=tuple(positions),
            segments=segments,
            digests=digests,
            origin_fingerprint=origin_fingerprint,
        )

    # ------------------------------------------------------------------ #
    # Digest cache
    # ------------------------------------------------------------------ #

    @property
    def digest_cache_path(self) -> Path:
        return self.campaign_dir / _DIGEST_CACHE_NAME

    def _load_digest_cache(self) -> Dict[str, dict]:
        if self._digest_cache is None:
            files: Dict[str, dict] = {}
            try:
                # Corruptible seam read: a flipped bit fails the JSON
                # parse or schema check below and every file simply
                # verifies cold once — the cache is advisory.
                payload = json.loads(
                    _seam_read_text(
                        self.digest_cache_path,
                        component="segments",
                        op="digest-cache",
                        corruptible=True,
                    )
                )
                if (
                    isinstance(payload, dict)
                    and payload.get("schema") == SEGMENT_SCHEMA_VERSION
                    and isinstance(payload.get("files"), dict)
                ):
                    files = {
                        str(name): entry
                        for name, entry in payload["files"].items()
                        if isinstance(entry, dict)
                    }
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                pass  # absent or unreadable: every file verifies cold once
            self._digest_cache = files
        return self._digest_cache

    def _cache_verified_digest(self, path: Path, digest: str) -> None:
        cache = self._load_digest_cache()
        try:
            stat = path.stat()
        except OSError:
            return
        cache[path.name] = {
            "size": stat.st_size,
            "mtime_ns": stat.st_mtime_ns,
            "digest": digest,
        }
        self._digest_cache_dirty = True

    def _flush_digest_cache(self) -> None:
        if not self._digest_cache_dirty or self._digest_cache is None:
            return
        payload = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "files": self._digest_cache,
        }
        atomic_write_bytes(
            self.digest_cache_path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            component="segments",
            op="digest-cache",
        )
        self._digest_cache_dirty = False

    def _verify_segment(self, path: Path, expected: str) -> bool:
        """Digest-check one segment file, through the verified cache.

        A cache entry matching the file's ``(size, mtime_ns)`` and the
        marker's expected digest skips the read+hash entirely.  On any
        mismatch the whole cache is cleared and this handle permanently
        falls back to cold-path full hashing; the corrupt file is
        quarantined to ``*.corrupt`` with a warning.
        """
        try:
            stat = path.stat()
        except OSError:
            return False
        cache = self._load_digest_cache()
        if not self._digest_cache_distrusted:
            cached = cache.get(path.name)
            if (
                cached is not None
                and cached.get("size") == stat.st_size
                and cached.get("mtime_ns") == stat.st_mtime_ns
                and cached.get("digest") == expected
            ):
                self.obs.inc("segments.digest_cache.hits")
                return True
        try:
            payload = path.read_bytes()
        except OSError:
            return False
        self.obs.inc("segments.digest_cache.misses")
        if _digest(payload) != expected:
            # Corruption observed: nothing cached is trusted anymore.
            self._digest_cache_distrusted = True
            if cache:
                cache.clear()
                self._digest_cache_dirty = True
            quarantined = _quarantine(path)
            _log.warning(
                "segment %s fails its content digest; quarantined to %s "
                "and treating its batch as uncovered",
                path.name,
                quarantined.name if quarantined is not None else "<gone>",
            )
            return False
        self._cache_verified_digest(path, expected)
        return True

    # ------------------------------------------------------------------ #
    # Sidecar index
    # ------------------------------------------------------------------ #

    def _index_path(self, first: int) -> Path:
        return self.batches_dir / f"index-{first:08d}.json"

    def _write_index(
        self,
        first: int,
        positions: Sequence[int],
        streams: Dict[str, Dict[str, object]],
    ) -> None:
        payload = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "seed_root": self.seed_root,
            "config_fingerprint": self.config_fingerprint,
            "positions": list(positions),
            "streams": streams,
        }
        atomic_write_bytes(
            self._index_path(first),
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            component="segments",
            op="index",
        )

    def _load_index(self, entry: _BatchEntry) -> Dict[str, Dict[str, dict]]:
        """The batch's sidecar index, rebuilt from segments if needed.

        Returns ``{stream: {"file", "digest", "offsets"}}`` where
        ``offsets`` maps ``str(pos)`` to ``[start, length, count]``
        byte extents.  The sidecar is trusted only when its envelope
        matches this store and every stream ref names the same file and
        digest as the validated marker — anything else (missing, stale,
        tampered, foreign) triggers a rebuild from the segment files,
        which is then persisted for the next reader.
        """
        cached = self._index_cache.get(entry.first)
        if cached is not None:
            return cached
        streams: Optional[Dict[str, Dict[str, dict]]] = None
        try:
            # Corruptible seam read: a flipped bit fails the JSON parse
            # or the envelope/digest match below, and the index is
            # rebuilt from the (digest-verified) segment files.
            payload = json.loads(
                _seam_read_text(
                    self._index_path(entry.first),
                    component="segments",
                    op="index",
                    corruptible=True,
                )
            )
            if (
                isinstance(payload, dict)
                and payload.get("schema") == SEGMENT_SCHEMA_VERSION
                and payload.get("seed_root") == self.seed_root
                and payload.get("config_fingerprint")
                == self.config_fingerprint
                and isinstance(payload.get("streams"), dict)
            ):
                candidate = payload["streams"]
                if all(
                    isinstance(candidate.get(stream), dict)
                    and candidate[stream].get("file")
                    == entry.segments[stream][0].name
                    and candidate[stream].get("digest")
                    == entry.digests.get(stream)
                    and isinstance(candidate[stream].get("offsets"), dict)
                    for stream in entry.segments
                ):
                    streams = {
                        stream: candidate[stream] for stream in entry.segments
                    }
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            pass
        if streams is None:
            streams = self._rebuild_index(entry)
            self._write_index(entry.first, list(entry.positions), streams)
        self._index_cache[entry.first] = streams
        return streams

    def _rebuild_index(self, entry: _BatchEntry) -> Dict[str, Dict[str, dict]]:
        """Recompute per-position byte extents by reading the segments."""
        streams: Dict[str, Dict[str, dict]] = {}
        for stream, (path, _count) in entry.segments.items():
            offsets: Dict[str, list] = {}
            with path.open("rb") as handle:
                cursor = len(handle.readline())  # header line
                for raw in handle:
                    if not raw.strip():
                        cursor += len(raw)
                        continue
                    record = json.loads(raw)
                    run = offsets.setdefault(
                        str(record["pos"]), [cursor, 0, 0]
                    )
                    run[1] += len(raw)
                    run[2] += 1
                    cursor += len(raw)
            streams[stream] = {
                "file": path.name,
                "digest": entry.digests.get(stream, ""),
                "offsets": offsets,
            }
        return streams

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def iter_stream(self, stream: str) -> Iterator[dict]:
        """All of one stream's records, merged into roster order.

        A bounded-memory k-way merge: segment files are activated
        lazily, in ascending first-position order, only once the merge
        frontier reaches them — so the number of concurrently open
        files is the overlap degree of the batch plan (1 for the
        contiguous batches a campaign writes), never the total segment
        count.  Within a persona, records keep their file order.
        """
        if stream not in STREAMS:
            raise ValueError(f"unknown stream: {stream!r}")
        entries = sorted(
            (e for e in self._scan() if stream in e.segments),
            key=lambda e: e.first,
        )
        return self._merge_entries(stream, entries)

    def _merge_entries(
        self, stream: str, entries: List[_BatchEntry]
    ) -> Iterator[dict]:
        # Fast path: the contiguous batch plan a campaign writes never
        # overlaps, so the sorted entries chain directly — no heap, no
        # per-record comparison.  The k-way heap survives for genuinely
        # overlapping position ranges (out-of-order backfills).
        if all(
            entries[i].last < entries[i + 1].first
            for i in range(len(entries) - 1)
        ):
            return self._chain_entries(stream, entries)
        return self._heap_merge_entries(stream, entries)

    def _chain_entries(
        self, stream: str, entries: List[_BatchEntry]
    ) -> Iterator[dict]:
        for entry in entries:
            yield from self._segment_records(entry, stream)

    def _heap_merge_entries(
        self, stream: str, entries: List[_BatchEntry]
    ) -> Iterator[dict]:
        heap: List[Tuple[int, int, int, dict, Iterator[dict]]] = []
        next_entry = 0
        serial = 0  # per-activation tiebreak; positions never tie across files
        while heap or next_entry < len(entries):
            while next_entry < len(entries) and (
                not heap or entries[next_entry].first <= heap[0][0]
            ):
                records = self._segment_records(
                    entries[next_entry], stream
                )
                first = next(records, None)
                if first is not None:
                    heappush(
                        heap, (first["pos"], serial, 0, first, records)
                    )
                    serial += 1
                next_entry += 1
            if not heap:
                break
            pos, tiebreak, seq, record, records = heappop(heap)
            yield record
            following = next(records, None)
            if following is not None:
                heappush(
                    heap,
                    (following["pos"], tiebreak, seq + 1, following, records),
                )

    def stream_records_for(self, stream: str, pos: int) -> List[dict]:
        """Point read: one persona's records of one stream.

        Indexed: the position is located through the scan's position
        map (no marker iteration) and the batch's sidecar index gives
        the persona's byte extent, so only its own lines are read and
        parsed — never the whole segment file.  Falls back to a full
        segment scan when the index disagrees with what it finds.
        """
        if stream not in STREAMS:
            raise ValueError(f"unknown stream: {stream!r}")
        if self._pos_entry is None:
            self._scan()
        entry = (self._pos_entry or {}).get(pos)
        if entry is None or stream not in entry.segments:
            return []
        extent = (
            self._load_index(entry).get(stream, {}).get("offsets", {})
        ).get(str(pos))
        if extent is None:
            return []
        start, length, count = extent
        path, _total = entry.segments[stream]
        try:
            with path.open("rb") as handle:
                handle.seek(start)
                blob = handle.read(length)
            # Universal newlines, like the text-mode full-segment read.
            records = list(
                _decode_lines(io.StringIO(blob.decode("utf-8"), newline=None))
            )
            if len(records) == count and all(
                record.get("pos") == pos for record in records
            ):
                return records
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            pass
        # Extent disagrees with the file (e.g. a hand-edited segment
        # whose digest was refreshed but whose index was not): rescan.
        self._index_cache.pop(entry.first, None)
        return [
            record
            for record in self._segment_records(entry, stream)
            if record["pos"] == pos
        ]

    def _segment_records(
        self, entry: _BatchEntry, stream: str
    ) -> Iterator[dict]:
        path, count = entry.segments[stream]
        expected_fingerprint = (
            entry.origin_fingerprint or self.config_fingerprint
        )
        with path.open("r", encoding="utf-8") as handle:
            header = _decode(next(handle))
            if (
                header.get("schema") != SEGMENT_SCHEMA_VERSION
                or header.get("stream") != stream
                or header.get("seed_root") != self.seed_root
                or header.get("config_fingerprint") != expected_fingerprint
            ):
                raise CorruptSegmentError(
                    f"segment {path.name} header fails validation"
                )
            yielded = 0
            for record in _decode_lines(handle):
                yield record
                yielded += 1
            if yielded != count:
                raise CorruptSegmentError(
                    f"segment {path.name} holds {yielded} records, "
                    f"marker says {count}"
                )


def _quarantine(path: Path) -> Optional[Path]:
    return quarantine_path(path)


def _package_version() -> str:
    from repro import __version__

    return __version__


# ---------------------------------------------------------------------- #
# Record extraction
# ---------------------------------------------------------------------- #


def persona_stream_records(
    artifacts: PersonaArtifacts, pos: int
) -> Dict[str, List[dict]]:
    """One persona's artifacts as segment records, keyed by stream.

    Record field values are chosen so that a JSON round trip is exact
    (str/int/float/bool only) and so that export CSV rows built from
    them are byte-identical to rows built from the live objects — this
    function is the single point where the in-memory and segment
    representations meet.
    """
    persona = artifacts.persona
    observations, dsar_missing = persona_observations(artifacts)
    records: Dict[str, List[dict]] = {
        "personas": [
            {
                "pos": pos,
                "name": persona.name,
                "kind": persona.kind,
                "category": persona.category,
                "loaded_slots": sorted(artifacts.loaded_slots),
                "install_failures": list(artifacts.install_failures),
                "dsar_missing": dsar_missing,
            }
        ],
        "bids": [
            {
                "pos": pos,
                "persona": b.persona,
                "iteration": b.iteration,
                "site": b.site,
                "slot": b.slot_id,
                "bidder": b.bidder,
                "cpm": b.cpm,
                "interacted": b.interacted,
            }
            for b in artifacts.bids
        ],
        "ads": [
            {
                "pos": pos,
                "persona": ad.persona,
                "iteration": ad.iteration,
                "site": ad.site,
                "slot": ad.slot_id,
                "advertiser": ad.creative.advertiser,
                "product": ad.creative.product,
                "source": ad.creative.source,
            }
            for ad in artifacts.ads
        ],
        "sync": [
            {
                "pos": pos,
                "persona": event.persona,
                "source": event.source,
                "destination": event.destination_host,
                "uid": event.uid,
                "url": event.url,
            }
            for event in persona_sync_events(artifacts)
        ],
        "dsar": [
            {
                "pos": pos,
                "persona": obs.persona,
                "request": obs.request_label,
                "interests": (
                    list(obs.interests) if obs.interests is not None else None
                ),
            }
            for obs in observations
        ],
        "audio": [
            {
                "pos": pos,
                "persona": session.persona,
                "skill": session.skill_name,
                "start": segment.start,
                "brand": segment.label,
            }
            for session in artifacts.audio_sessions
            for segment in session.ad_segments
        ],
    }
    if persona.kind == "interest":
        records["flows"] = _flow_records(artifacts, pos)
        records["policy"] = [
            {
                "pos": pos,
                "persona": persona.name,
                "skill": fetch.skill_id,
                "has_link": fetch.has_link,
                "downloaded": fetch.downloaded,
                "mentions_amazon": (
                    fetch.downloaded and fetch.document.mentions_amazon
                ),
                "links_amazon_policy": (
                    fetch.downloaded and fetch.document.links_amazon_policy
                ),
            }
            for fetch in artifacts.policy_fetches
        ]
    else:
        records["flows"] = []
        records["policy"] = []
    return records


def _flow_records(artifacts: PersonaArtifacts, pos: int) -> List[dict]:
    rows: List[dict] = []
    for skill_id, capture in artifacts.skill_captures.items():
        dns = capture.dns_table()
        for flow in capture.flows():
            if flow.key[3] == "dns":
                continue
            domain = dns.domain_for_ip(flow.remote_ip) or flow.sni or ""
            rows.append(
                {
                    "pos": pos,
                    "persona": artifacts.persona.name,
                    "skill": skill_id,
                    "domain": domain,
                    "ip": flow.remote_ip,
                    "port": flow.remote_port,
                    "packets": len(flow.packets),
                    "bytes": flow.total_bytes,
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Campaign integration
# ---------------------------------------------------------------------- #


def write_dataset_segments(store: SegmentStore, dataset) -> None:
    """Materialize an in-memory dataset into ``store`` (one batch).

    Bridges the two worlds for benchmarks and tests: the dataset's
    personas must be exactly the store's roster, in order.
    """
    names = tuple(dataset.personas)
    if names != store.roster:
        raise ValueError(
            "dataset personas do not match the store roster: "
            f"{names} vs {store.roster}"
        )
    store.ensure_manifest()
    records: Dict[str, List[dict]] = {stream: [] for stream in STREAMS}
    for pos, name in enumerate(names):
        for stream, recs in persona_stream_records(
            dataset.personas[name], pos
        ).items():
            records[stream].extend(recs)
    store.write_batch(list(range(len(names))), records)
    store.write_manifest("complete")


def write_segment_batch(
    store: SegmentStore,
    seed: Seed,
    config: ExperimentConfig,
    positions: Sequence[int],
    catalog: Optional[SkillCatalog] = None,
) -> None:
    """Run the campaign for one persona batch and publish its segments.

    The flat-memory unit: a private world is built, the batch's
    personas are driven through the full campaign, their artifacts are
    flattened to records and written, and everything is dropped before
    the next batch.  Per-persona artifacts are seed-substream-keyed
    (independent of batch composition), so any batching produces the
    same segments.

    ``catalog`` is the campaign's shared base catalog
    (``build_catalog(seed)``, never a churned one — the world applies
    ``config.catalog_churn`` itself); ``None`` builds it here.
    """
    roster = scaled_roster(config.roster_scale)
    if tuple(p.name for p in roster) != store.roster:
        raise ValueError("config roster does not match the store roster")
    personas = [roster[pos] for pos in positions]
    world = build_config_world(seed, config, catalog=catalog)
    dataset = ExperimentRunner(world, config, personas=personas).run()
    records: Dict[str, List[dict]] = {stream: [] for stream in STREAMS}
    for pos, persona in zip(positions, personas):
        for stream, recs in persona_stream_records(
            dataset.personas[persona.name], pos
        ).items():
            records[stream].extend(recs)
    store.write_batch(list(positions), records)


def run_segment_shard(
    shard_index: int,
    seed: Seed,
    config: ExperimentConfig,
    persona_names: Sequence[str],
    collect_obs: bool = False,
    *,
    store_root: Union[str, Path],
    batch_personas: int = 1,
    catalog: Optional[SkillCatalog] = None,
):
    """Supervisor shard body that emits segments instead of artifacts.

    Drop-in for :func:`repro.core.parallel._run_shard`: instead of
    returning a pickled dataset bundle, the worker writes its personas'
    segments straight to the store in ``batch_personas``-sized batches —
    skipping positions covered when the attempt starts, which gives a
    crashed and retried shard persona-granularity resume for free — and
    returns a lightweight, artifact-free
    :class:`~repro.core.parallel.ShardResult` for the supervisor's
    attempt accounting.  One coverage scan per attempt is enough: shards
    own disjoint positions, and a failed attempt is dead (exited, or
    killed by the watchdog) before its retry starts.  ``catalog`` is
    passed to every :func:`write_segment_batch` call (the campaign's
    shared base catalog, which forked workers inherit).
    """
    from repro.core.parallel import ShardResult

    roster = scaled_roster(config.roster_scale)
    pos_by_name = positions_by_name(roster)
    unknown = [n for n in persona_names if n not in pos_by_name]
    if unknown:
        raise ValueError(f"unknown personas in shard {shard_index}: {unknown}")
    store = SegmentStore(
        store_root,
        seed.root,
        config_fingerprint(config),
        [p.name for p in roster],
    )
    positions = [pos_by_name[name] for name in persona_names]
    step = max(1, batch_personas)
    covered = store.covered_positions()
    pending = [pos for pos in positions if pos not in covered]
    for start in range(0, len(pending), step):
        write_segment_batch(
            store, seed, config, pending[start : start + step], catalog
        )
        # Collect the batch's cyclic world/runner graph immediately so a
        # worker's peak memory is one batch, not GC-schedule-dependent.
        gc.collect()
    return ShardResult(
        shard_index=shard_index,
        persona_names=list(persona_names),
        personas={},
        prebid_sites=[],
        crawl_sites=[],
        policy_fetches=[],
        timings={},
        obs=None,
    )
