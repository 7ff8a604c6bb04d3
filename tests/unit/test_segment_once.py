"""Segment campaigns pay each per-campaign cost once.

* The seed-only skill catalog is built once per campaign (serial and
  parallel), not once per batch, and never when every persona is
  already covered.  Every batch still builds its own world on top of
  that one base catalog, and catalog churn never touches it.
* The export decodes each stored record once: the CSV pass feeds the
  summary fold, so no stream is read twice.
"""

import dataclasses
import json
import os

import pytest

import repro.core.segments as segments_mod
import repro.core.world as world_mod
import repro.data.skill_catalog as catalog_mod
from repro.core.campaign import run_segment_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import (
    EXPORT_FILES,
    export_segment_store,
    summarize_segment_store,
)
from repro.core.segments import STREAMS, SegmentStore
from repro.util.rng import Seed

SEED = 42

#: A tiny campaign over the default (small) 13-persona roster.
CONFIG = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


class CatalogSpy:
    """Counts ``build_catalog`` calls at every import site and records
    the catalog each world is built from."""

    def __init__(self, monkeypatch):
        self.built = []
        self.world_catalogs = []
        original = catalog_mod.build_catalog
        original_world = world_mod.build_world

        def build_catalog(seed):
            catalog = original(seed)
            self.built.append(catalog)
            return catalog

        def build_world(seed, catalog=None, *args, **kwargs):
            self.world_catalogs.append(catalog)
            return original_world(seed, catalog, *args, **kwargs)

        monkeypatch.setattr(catalog_mod, "build_catalog", build_catalog)
        monkeypatch.setattr(world_mod, "build_catalog", build_catalog)
        monkeypatch.setattr(world_mod, "build_world", build_world)


def run(store_dir, config=CONFIG, **kwargs):
    return run_segment_campaign(
        config, Seed(SEED), store_dir=store_dir, batch_personas=1, **kwargs
    )


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serial-store")
    with pytest.MonkeyPatch.context() as mp:
        spy = CatalogSpy(mp)
        store = run(store_dir)
    return store, spy


class TestOneCatalogPerCampaign:
    def test_serial_campaign_builds_catalog_once(self, serial_run):
        store, spy = serial_run
        assert len(spy.built) == 1
        # Still one world per batch, every one on the shared catalog.
        assert len(spy.world_catalogs) == len(store.roster)
        assert all(c is spy.built[0] for c in spy.world_catalogs)

    def test_parallel_campaign_builds_once_and_rerun_never(
        self, monkeypatch, tmp_path
    ):
        """The parent builds the one catalog before forking; workers
        inherit it and build only worlds.  Calls are logged to a file,
        which every forked worker appends to as well."""
        log = tmp_path / "calls.log"
        original = catalog_mod.build_catalog
        original_world = world_mod.build_world

        def record(event):
            with open(log, "a") as handle:
                handle.write(f"{event} {os.getpid()}\n")

        def build_catalog(seed):
            record("catalog")
            return original(seed)

        def build_world(seed, catalog=None, *args, **kwargs):
            record("world" if catalog is not None else "world-without-catalog")
            return original_world(seed, catalog, *args, **kwargs)

        monkeypatch.setattr(catalog_mod, "build_catalog", build_catalog)
        monkeypatch.setattr(world_mod, "build_catalog", build_catalog)
        monkeypatch.setattr(world_mod, "build_world", build_world)

        store = run(tmp_path / "store", parallel=True, workers=2)
        calls = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert [pid for event, pid in calls if event == "catalog"] == [parent]
        worlds = [pid for event, pid in calls if event.startswith("world")]
        assert worlds.count(parent) == 0  # every world is built in a worker
        assert [event for event, _ in calls].count("world") == len(store.roster)
        assert len(worlds) == len(store.roster)

        log.unlink()
        store = run(tmp_path / "store", parallel=True, workers=2)
        assert not log.exists()
        assert store.status() == "complete"

    def test_churned_epoch_leaves_base_catalog_untouched(
        self, monkeypatch, tmp_path
    ):
        spy = CatalogSpy(monkeypatch)
        churned = dataclasses.replace(
            CONFIG, catalog_churn=("smart-home:epoch-1", "dating:epoch-1")
        )
        run(tmp_path, config=churned)
        assert len(spy.built) == 1
        base = spy.built[0]
        monkeypatch.undo()
        fresh = catalog_mod.build_catalog(Seed(SEED))
        assert len(base.skills) == len(fresh.skills)
        assert all(a == b for a, b in zip(base.skills, fresh.skills))
        # ...while the churn did reach the worlds built on top of it.
        churned_world = world_mod.build_config_world(
            Seed(SEED), churned, catalog=base
        )
        assert churned_world.catalog is not base
        assert churned_world.catalog.skills != base.skills


class TestOneDecodePerRecord:
    def test_export_reads_each_stream_once(
        self, serial_run, monkeypatch, tmp_path
    ):
        built, _ = serial_run
        store = SegmentStore(
            built.root, built.seed_root, built.config_fingerprint, built.roster
        )
        stored = sum(
            count
            for entry in store.batches()
            for _path, count in entry.segments.values()
        )
        vanilla = store.roster.index("vanilla")
        point_read = len(store.stream_records_for("bids", vanilla))
        assert point_read > 0

        streams = []
        decoded = [0]
        original_iter = SegmentStore.iter_stream
        original_decode = segments_mod._decode_lines

        def iter_stream(self, stream):
            streams.append(stream)
            return original_iter(self, stream)

        def decode_lines(lines):
            for record in original_decode(lines):
                decoded[0] += 1
                yield record

        monkeypatch.setattr(SegmentStore, "iter_stream", iter_stream)
        monkeypatch.setattr(segments_mod, "_decode_lines", decode_lines)
        counts = export_segment_store(store, tmp_path)
        monkeypatch.undo()

        assert sorted(streams) == sorted(STREAMS)
        assert decoded[0] == stored + point_read
        assert set(counts) == set(EXPORT_FILES)
        assert (tmp_path / "summary.json").read_text(
            encoding="utf-8"
        ) == json.dumps(summarize_segment_store(store), indent=2, sort_keys=True)
