"""The segment store's metadata traffic, counted call for call.

A segment campaign has one writer of store metadata: the campaign owner
(the serial runner, a sharded run's parent, a timeline epoch) scans its
store once, trusts the batches it writes itself, and persists
``digest-cache.json`` once, right after the manifest.  Forked shard
workers scan once per attempt, hash only the segments they write, and
write no metadata.  These tests count scans, digest-cache writes and
cold digest verifications in every process of a TINY campaign, so a
change that brings back a per-batch rescan or a per-worker cache flush
fails here in seconds (CI pins the traced ``segments-sharded`` atomic
writes exactly for the same reason).
"""

import json
import os
from collections import Counter
from pathlib import Path

import pytest

import repro.core.segments as segments
from repro.core.campaign import CampaignSpec, execute_spec
from repro.core.experiment import ExperimentConfig
from repro.core.personas import scaled_roster
from repro.core.segments import SegmentStore
from repro.core.timeline import EpochSpec, TimelineSpec, run_timeline

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)
ROSTER = len(scaled_roster(TINY.roster_scale))


class _Traffic:
    """Appends one ``pid event detail`` line per counted call to a file,
    so forked workers report to the test process too."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def log(self, event: str, detail: str) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {event} {detail}\n")

    def events(self):
        if not self.path.exists():
            return []
        return [
            tuple(line.split(" ", 2))
            for line in self.path.read_text(encoding="utf-8").splitlines()
        ]

    def count(self, event, pid=None, detail=None) -> int:
        return sum(
            1
            for p, e, d in self.events()
            if e == event
            and (pid is None or p == str(pid))
            and (detail is None or d == detail)
        )

    def pids(self, event):
        return Counter(p for p, e, _ in self.events() if e == event)

    # The store's obs sink: every handle records its digest-cache
    # hits and misses here.
    def inc(self, name: str, n: int = 1, merge: str = "sum") -> None:
        for _ in range(n):
            self.log(name, "-")


@pytest.fixture
def traffic(tmp_path, monkeypatch):
    """Count store scans, digest-cache writes and cache misses."""
    traffic = _Traffic(tmp_path / "traffic.log")
    real_scan = SegmentStore._scan
    real_write = segments.atomic_write_bytes

    def scan(self):
        if self._scan_cache is None:
            traffic.log("scan", self.campaign_dir.name)
        return real_scan(self)

    def write(path, data, **kwargs):
        if Path(path).name == "digest-cache.json":
            traffic.log("digest-cache", Path(path).parent.name)
        return real_write(path, data, **kwargs)

    monkeypatch.setattr(SegmentStore, "_scan", scan)
    monkeypatch.setattr(segments, "atomic_write_bytes", write)
    monkeypatch.setattr(segments, "NULL_OBS", traffic)
    return traffic


def _spec(**fields):
    return CampaignSpec(config=TINY, seed=42, store="segments", **fields)


class TestSerialCampaign:
    def test_scans_once_and_writes_the_cache_once(self, traffic, tmp_path):
        _, store = execute_spec(_spec(), tmp_path / "out")
        assert store.status() == "complete"
        # One scan before the first batch serves all 13 batches and the
        # export: the handle adds each batch it writes to its view.
        assert traffic.count("scan") == 1
        assert traffic.count("digest-cache") == 1
        # The writer cached every digest it computed: nothing verifies
        # cold, and the cache on disk names every segment.
        assert traffic.count("segments.digest_cache.misses") == 0
        cached = SegmentStore(
            store.root, store.seed_root, store.config_fingerprint, store.roster
        )._load_digest_cache()
        assert set(cached) == {p.name for p in store.segments_dir.iterdir()}


class TestShardedCampaign:
    def test_only_the_parent_writes_the_cache(self, traffic, tmp_path):
        _, store = execute_spec(_spec(parallel=True, workers=2), tmp_path / "out")
        assert store.status() == "complete"
        parent = os.getpid()
        assert traffic.count("digest-cache") == 1
        assert traffic.count("digest-cache", pid=parent) == 1
        # Each worker scans once, at the start of its attempt; the parent
        # scans before the supervisor and once after it.
        scans = traffic.pids("scan")
        workers = set(scans) - {str(parent)}
        assert len(workers) == 2
        assert all(scans[pid] == 1 for pid in workers)
        assert scans[str(parent)] == 2

    def test_workers_hash_only_what_they_write(self, traffic, tmp_path):
        _, store = execute_spec(_spec(parallel=True, workers=2), tmp_path / "out")
        parent = str(os.getpid())
        misses = traffic.pids("segments.digest_cache.misses")
        # No worker cold-hashes a sibling's batches: its own segments
        # verify through the digests it cached while writing them.
        assert set(misses) == {parent}
        # The parent's one end-of-run scan verifies every segment cold.
        assert misses[parent] == len(list(store.segments_dir.iterdir()))


class TestTimelineEpoch:
    def test_adopting_epoch_scans_its_store_once(self, traffic, tmp_path):
        spec = TimelineSpec(
            base=_spec(),
            epochs=(
                EpochSpec(),
                EpochSpec(interest_drift=("dating:2", "smart-home:1")),
            ),
        )
        result = run_timeline(spec, tmp_path / "out")
        epoch = Path(result.epochs[1].campaign_dir)
        reuse = json.loads((epoch / "MANIFEST.json").read_text())["timeline"]
        # k batches adopted whole (hard links), the dirty rest recomputed.
        assert reuse["reuse"]["linked"] > 0
        assert 0 < reuse["personas_reused"] < ROSTER
        assert traffic.count("scan", detail=epoch.name) == 1
        assert traffic.count("digest-cache", detail=epoch.name) == 1
