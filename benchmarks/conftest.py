"""Benchmark fixtures: the full-scale campaign, run once per session.

Every benchmark regenerates one of the paper's tables or figures from the
shared dataset, times the analysis, prints the rows the paper reports,
and asserts the qualitative shape (who wins, rough factors, which
personas are significant).
"""

import json
from pathlib import Path

import pytest

from repro.core.campaign import run_campaign
from repro.core.personas import interest_personas

#: Measurements recorded via the ``bench_record`` fixture, keyed by
#: benchmark name.  Written to ``--bench-json`` at session end.
_BENCH_RESULTS = {}


def pytest_addoption(parser):
    group = parser.getgroup("repro", "campaign execution")
    group.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="write measurements recorded via the bench_record fixture "
        "to PATH as JSON (informational; no committed baseline)",
    )


@pytest.fixture(scope="session")
def bench_record():
    """Record named measurements for the ``--bench-json`` report.

    Benchmarks call ``bench_record(name, **fields)`` with whatever
    scalar measurements they want persisted (seconds, ratios, counts).
    Repeated calls with the same name merge their fields.
    """

    def record(name, **fields):
        _BENCH_RESULTS.setdefault(name, {}).update(fields)

    return record


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if path and _BENCH_RESULTS:
        payload = json.dumps(_BENCH_RESULTS, indent=2, sort_keys=True)
        Path(path).write_text(payload + "\n")


@pytest.fixture(scope="session")
def dataset():
    """The paper-scale campaign (450 skills, 31 crawl iterations, 13
    personas) under the default seed, run once per session.

    Always computed by the code under test, never read from the on-disk
    dataset cache: that cache is keyed by seed and config only, so after
    a model change a warm cache would serve every benchmark the old
    results.
    """
    return run_campaign(seed=42)


@pytest.fixture(scope="session")
def segment_store(dataset, tmp_path_factory):
    """The session dataset materialized as an on-disk segment store.

    Stream-variant benchmarks run the same analyses off the k-way-merged
    segment streams instead of the in-memory artifact bundle; writing
    the store once per session keeps the comparison apples-to-apples.
    """
    from repro.core.cache import config_fingerprint
    from repro.core.experiment import ExperimentConfig
    from repro.core.segments import SegmentStore, write_dataset_segments

    store = SegmentStore(
        tmp_path_factory.mktemp("segments"),
        42,
        config_fingerprint(ExperimentConfig()),
        tuple(dataset.personas),
    )
    write_dataset_segments(store, dataset)
    return store


@pytest.fixture(scope="session")
def world(dataset):
    return dataset.world


@pytest.fixture(scope="session")
def vendor_by_skill(world):
    """Skill id -> vendor name, as scraped from store listings."""
    return {s.skill_id: s.vendor for s in world.catalog}


@pytest.fixture(scope="session")
def vendors_by_persona(world):
    return {
        p.name: {s.vendor for s in world.catalog.top_skills(p.category, 50)}
        for p in interest_personas()
    }


@pytest.fixture(scope="session")
def skill_names_by_persona(world):
    return {
        p.name: [s.name for s in world.catalog.top_skills(p.category, 50)]
        for p in interest_personas()
    }
