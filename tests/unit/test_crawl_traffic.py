"""The crawl's traffic, counted call for call.

The e2e benchmark's CI job ("Crawl traffic gate") pins the traced
``crawl-small`` counts exactly.  :class:`TestCrawlTrafficGate` repeats
those counts in tier-1, so a rewrite of the browser or bid hop that adds
or drops a request, a URL parse or a seed derivation fails here in
seconds.  The other tests check the request log the crawl hands to the
auditor: the post-interaction crawls pass each browser's log over
without a copy, and the cookie-sync scan parses only the URLs its
prefilter lets through, with the events a parse of every URL gives.
"""

import functools
import sys
import urllib.parse
from collections import Counter
from pathlib import Path

import pytest

import repro.core.syncing as syncing
import repro.util.rng
from repro.core.campaign import CampaignSpec, execute_spec
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.world import build_config_world
from repro.util.rng import Seed
from repro.web.browser import Browser, WebUniverse

ROOT = Path(__file__).resolve().parents[2]

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)


def _counting(counts, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestCrawlTrafficGate:
    #: CI's pins: the traced ``crawl-small`` execution of campaign seed 45
    #: (the first of the panel order ``bench_e2e.py --seed 42`` runs).
    SEED = 45
    EXPECTED = {
        "Browser.get": 26768,
        "WebUniverse.handle": 27300,
        "urlsplit": 11923,
        "derive_seed_int": 24116,
    }

    def test_crawl_small_counts_match_the_ci_pins(self, monkeypatch, tmp_path):
        counts = Counter()
        monkeypatch.setattr(Browser, "get", _counting(counts, "Browser.get", Browser.get))
        monkeypatch.setattr(
            WebUniverse, "handle", _counting(counts, "WebUniverse.handle", WebUniverse.handle)
        )
        monkeypatch.setattr(
            urllib.parse, "urlsplit", _counting(counts, "urlsplit", urllib.parse.urlsplit)
        )
        # Like the benchmark's tracer: every module that bound the name.
        derive = repro.util.rng.derive_seed_int
        wrapper = _counting(counts, "derive_seed_int", derive)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "derive_seed_int", None) is derive:
                monkeypatch.setattr(module, "derive_seed_int", wrapper)
        workload = ROOT / "benchmarks" / "e2e" / "workloads" / "crawl-small.json"
        spec = CampaignSpec.from_json(workload.read_text(encoding="utf-8"))
        spec = spec.replace(seed=self.SEED)
        execute_spec(spec, tmp_path / "out")
        assert dict(counts) == self.EXPECTED


@pytest.fixture(scope="module")
def tiny_run():
    """A TINY campaign, with each crawler's log as the last crawl left it."""
    runner = ExperimentRunner(build_config_world(Seed(42), TINY), TINY)
    at_end = {}
    crawl_all = runner._crawl_all

    def snapshot_after_crawl(*args, **kwargs):
        crawl_all(*args, **kwargs)
        for name, crawler in runner._crawlers.items():
            at_end[name] = (crawler.browser.request_log, list(crawler.browser.request_log))

    runner._crawl_all = snapshot_after_crawl
    dataset = runner.run()
    return runner, dataset, at_end


def test_post_crawls_hand_the_browser_log_over(tiny_run):
    runner, dataset, at_end = tiny_run
    assert at_end and set(at_end) == set(dataset.personas)
    for name, artifacts in dataset.personas.items():
        former, entries = at_end[name]
        browser = runner._crawlers[name].browser
        assert artifacts.request_log is former
        assert len(entries) > 0
        assert len(artifacts.request_log) == len(entries)
        assert all(a is b for a, b in zip(artifacts.request_log, entries))
        # The browser starts a fresh log: later requests never reach the
        # artifact's.
        assert browser.request_log == [] and browser.request_log is not former
        browser.get("https://nowhere.example.net/")
        assert len(browser.request_log) == 1
        assert len(artifacts.request_log) == len(entries)


def test_sync_scan_parses_only_candidate_urls(tiny_run, monkeypatch):
    _, dataset, _ = tiny_run
    parsed = []
    urlparse = syncing.urlparse

    def recording(url, *args, **kwargs):
        parsed.append(url)
        return urlparse(url, *args, **kwargs)

    monkeypatch.setattr(syncing, "urlparse", recording)
    logged = [r.url for a in dataset.personas.values() for r in a.request_log]
    events = [
        event
        for artifacts in dataset.personas.values()
        for event in syncing.persona_sync_events(artifacts)
    ]
    bid_urls = [url for url in logged if urlparse(url).path == "/bid"]
    assert bid_urls and events
    # One parse per candidate URL, in log order, and no other.
    assert parsed == [url for url in logged if syncing._SYNC_CANDIDATE.search(url)]
    assert not set(parsed) & set(bid_urls)

    # Brute force: parse every logged URL, no prefilter.
    del parsed[:]
    reference = [
        event
        for artifacts in dataset.personas.values()
        for request in artifacts.request_log
        for event in syncing._parse_syncs(request, artifacts.persona.name)
    ]
    assert set(parsed) >= set(logged)
    assert events == reference
