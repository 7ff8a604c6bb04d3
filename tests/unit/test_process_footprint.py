"""What a ``repro`` process loads, and what forked shard workers freeze.

A campaign run loads neither NumPy nor SciPy: the significance tests
and bid summaries are standard-library kernels, and a run completes
in an interpreter that cannot import either.  Forked shard workers
``gc.freeze()`` the heap they inherit so their collections walk only
what the shard allocates; the parent never does.

Cold start: every package re-exports lazily, so a fresh interpreter
that sets up a campaign imports the simulation and nothing of the
analysis, export or supervisor layers, nor NumPy.  A forked worker
never imports after the fork: the parent loads everything a shard body
needs first.

The crawl's request log and bid records are most of a campaign's heap,
so the bytes each entry retains are measured and bounded.  Per-actor
random substreams keep a seed and a draw count each, and only a bounded
pool of generators stays live.
"""

import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CampaignSpec, ExperimentConfig, execute_spec
from repro.core.parallel import SupervisorPolicy, _ShardSupervisor
from repro.util.rng import POOL_SIZE, Seed, StreamFamily

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
PLAN = [["a", "b"], ["c"]]
TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)
#: Modules a campaign set-up or a CLI start must not load: NumPy and
#: SciPy, the supervisor's multiprocessing, the service, and the
#: analysis, export, store and supervisor layers of ``repro.core``.
HEAVY = ["numpy", "scipy", "multiprocessing", "repro.service"] + [
    f"repro.core.{name}"
    for name in (
        "parallel", "segments", "checkpoint", "fsck", "timeline",
        "export", "stats", "bids", "traffic", "report", "syncing",
        "compliance", "profiling", "adcontent",
    )
]
#: ``repro.*`` modules a cold campaign set-up loads.  Re-measure after
#: changing an import with ``PYTHONPATH=src python -c "import sys, repro;
#: from repro.core.world import build_config_world;
#: spec = repro.CampaignSpec.from_json('{}');
#: build_config_world(repro.Seed(0), spec.config);
#: print(sum(m.split('.')[0] == 'repro' for m in sys.modules))"``.
COLD_SETUP_REPRO_MODULES = 58


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _loaded_after(code: str, watched) -> list:
    """Run ``code`` in a fresh interpreter; its output lines, then the
    sorted ``watched`` modules (or their submodules) it left loaded."""
    out = _run_python(
        "import sys\n"
        + code
        + f"\nwatched = {sorted(watched)!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == w or m.startswith(w + '.') for w in watched)))"
    )
    return out.splitlines()


def test_import_repro_loads_no_scipy():
    loaded = _run_python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_significance_tests_load_neither_numpy_nor_scipy():
    lines = _loaded_after(
        "from repro.core.stats import mann_whitney_u, summarize\n"
        "exact = mann_whitney_u([3.0, 4.0, 5.0], [1.0, 2.0])\n"
        "asymptotic = mann_whitney_u(range(20), [x + 0.5 for x in range(5, 25)])\n"
        "assert exact.n_treatment < 8 and asymptotic.n_treatment >= 8\n"
        "summarize([0.25, 0.5, 4.0])",
        ["numpy", "scipy"],
    )
    assert lines == ["[]"]


#: Makes ``numpy`` and ``scipy`` unimportable in a fresh interpreter.
BLOCK_NUMPY_AND_SCIPY = (
    "import sys\n"
    "class BlockNumpyAndScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, BlockNumpyAndScipy())\n"
)


def test_campaign_runs_where_numpy_and_scipy_cannot_be_imported(tmp_path):
    """Serial memory store and parallel segment store, with their
    export bytes equal to the same specs run here."""
    from repro import execute_spec
    from repro.core.export import EXPORT_FILES

    specs = [
        CampaignSpec(config=TINY),
        CampaignSpec(config=TINY, store="segments", parallel=True),
    ]
    _run_python(
        BLOCK_NUMPY_AND_SCIPY
        + "from repro import CampaignSpec, execute_spec\n"
        f"for i, text in enumerate({[spec.to_json() for spec in specs]!r}):\n"
        f"    execute_spec(CampaignSpec.from_json(text), {str(tmp_path)!r} + f'/blocked-{{i}}')\n"
    )
    for i, spec in enumerate(specs):
        execute_spec(spec, tmp_path / f"here-{i}")
        for name in EXPORT_FILES:
            blocked = (tmp_path / f"blocked-{i}" / name).read_bytes()
            assert blocked == (tmp_path / f"here-{i}" / name).read_bytes(), (i, name)


class TestColdStart:
    def test_campaign_setup_imports_only_the_simulation(self):
        specs = [
            CampaignSpec(config=TINY).to_json(),
            CampaignSpec(config=TINY, parallel=True, store="segments").to_json(),
        ]
        lines = _loaded_after(
            "import repro\n"
            "from repro.core.world import build_config_world\n"
            f"for text in {specs!r}:\n"
            "    spec = repro.CampaignSpec.from_json(text)\n"
            "    build_config_world(repro.Seed(spec.seed), spec.config)\n"
            "print(sum(m.split('.')[0] == 'repro' for m in sys.modules))",
            HEAVY + ["repro.cli"],
        )
        assert lines == [str(COLD_SETUP_REPRO_MODULES), "[]"]

    def test_cli_version_and_help_import_only_the_cli(self):
        """The CLI resolves the campaign API through the lazy ``repro``
        package when a command runs, so printing the version or the
        usage loads no ``repro`` module beyond the CLI itself."""
        for argv in (["version"], ["--help"]):
            lines = _loaded_after(
                "import runpy\n"
                f"sys.argv = ['repro', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n",
                HEAVY + ["repro"],
            )
            assert lines[-1] == "['repro', 'repro.cli']", argv

    @pytest.mark.parametrize("store", ["memory", "segments"])
    def test_forked_worker_imports_nothing_after_the_fork(self, tmp_path, store):
        spec = CampaignSpec(
            config=TINY,
            parallel=True,
            store=store,
            store_dir=str(tmp_path / "store") if store == "segments" else None,
        )
        out = _run_python(
            "import json, sys\n"
            "import repro.core.parallel as parallel\n"
            "from repro import CampaignSpec, run_campaign\n"
            "real = parallel._shard_worker\n"
            "def recording_worker(conn, shard_index, *args):\n"
            "    before = set(sys.modules)\n"
            "    real(conn, shard_index, *args)\n"
            "    changed = sorted(set(sys.modules) ^ before)\n"
            "    print(json.dumps([shard_index, changed]), flush=True)\n"
            "parallel._shard_worker = recording_worker\n"
            f"run_campaign(CampaignSpec.from_json({spec.to_json()!r}))\n"
        )
        shards = sorted(json.loads(line) for line in out.splitlines())
        assert shards == [[0, []], [1, []]]


def _freeze_count_shard(shard_index, seed, config, persona_names, collect_obs):
    return gc.get_freeze_count()


def _run_supervisor():
    supervisor = _ShardSupervisor(
        PLAN,
        Seed(2026),
        None,  # config is opaque to the supervisor; the stub ignores it
        False,
        SupervisorPolicy(),
        shard_fn=_freeze_count_shard,
    )
    results, _ = supervisor.run()
    return results


def test_process_workers_freeze_the_inherited_heap():
    parent = gc.get_freeze_count()
    results = _run_supervisor()
    assert sorted(results) == [0, 1]
    assert all(count > parent for count in results.values()), (parent, results)


def test_parent_heap_is_never_frozen():
    before = gc.get_freeze_count()
    _run_supervisor()
    assert gc.get_freeze_count() == before


#: Bytes one request-log entry or bid record retains, on average, in a
#: TINY serial campaign under tracemalloc (Python 3.11): 478.7 with
#: dict-backed records, a cookie-dict copy per request and an empty
#: ``set_cookies`` dict per response; 239.2 with slotted records and
#: shared cookie snapshots; 276.8 if only ``LoggedRequest`` loses its
#: slots.  The URL strings alone keep it above 100.
MAX_RETAINED_BYTES_PER_ENTRY = 260


def test_request_log_and_bids_retain_few_bytes_per_entry():
    """Dropping a finished campaign's request logs and bid lists frees
    what only they keep alive; per entry, that stays small."""
    out = _run_python(
        "import gc, tracemalloc\n"
        "from repro import ExperimentConfig, run_campaign\n"
        f"config = ExperimentConfig(**{dataclasses.asdict(TINY)!r})\n"
        "tracemalloc.start()\n"
        "artifacts = list(run_campaign(config, seed=42).personas.values())\n"
        "entries = sum(len(a.request_log) + len(a.bids) for a in artifacts)\n"
        "gc.collect()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "for a in artifacts:\n"
        "    a.request_log, a.bids = [], []\n"
        "gc.collect()\n"
        "print(entries, before - tracemalloc.get_traced_memory()[0])"
    )
    entries, freed = map(int, out.split())
    assert entries > 1000
    assert 100 < freed / entries <= MAX_RETAINED_BYTES_PER_ENTRY, (entries, freed)


def _generators_held_by(families) -> int:
    """Distinct ``random.Random`` objects reachable from the families'
    attributes through dicts, lists and tuples."""
    found = set()
    stack = [value for family in families for value in vars(family).values()]
    while stack:
        obj = stack.pop()
        if isinstance(obj, random.Random):
            found.add(id(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return len(found)


def test_stream_families_hold_at_most_the_pool_of_generators(monkeypatch, tmp_path):
    """A mild-fault campaign draws from hundreds of (actor, domain)
    fault streams; the families keep them as seeds and draw counts."""
    families = []
    init = StreamFamily.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        families.append(self)

    monkeypatch.setattr(StreamFamily, "__init__", recording_init)
    config = dataclasses.replace(TINY, fault_profile="mild")
    execute_spec(CampaignSpec(config=config), tmp_path / "out")
    assert len(families) > 10
    assert _generators_held_by(families) <= POOL_SIZE
