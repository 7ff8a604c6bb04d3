"""What a ``repro`` process loads, and what forked shard workers freeze.

``scipy.stats`` costs hundreds of modules and tens of thousands of
GC-tracked objects; no ``repro`` code path needs it, and only the
significance tests need ``scipy.special``.  Forked shard workers
``gc.freeze()`` the heap they inherit so their collections walk only
what the shard allocates; the parent never does.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

from repro.core.parallel import SupervisorPolicy, _ShardSupervisor
from repro.util.rng import Seed

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
PLAN = [["a", "b"], ["c"]]


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_import_repro_loads_no_scipy():
    loaded = _run_python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_significance_tests_leave_scipy_stats_unloaded():
    loaded = _run_python(
        "import sys\n"
        "from repro.core.stats import mann_whitney_u\n"
        "exact = mann_whitney_u([3.0, 4.0, 5.0], [1.0, 2.0])\n"
        "asymptotic = mann_whitney_u(range(20), [x + 0.5 for x in range(5, 25)])\n"
        "assert exact.n_treatment < 8 and asymptotic.n_treatment >= 8\n"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    assert loaded == "True False"


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
