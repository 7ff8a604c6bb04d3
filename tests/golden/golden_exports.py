"""The canonical campaigns whose export digests are pinned in ``digests.json``.

Each case is a ``repro`` command line that writes the seven
:data:`~repro.core.export.EXPORT_FILES`.  ``test_golden_exports.py``
re-runs every case and compares sha256 digests; only
``python tests/golden/update.py`` rewrites the committed file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
SPECS_DIR = HERE / "specs"
SRC_DIR = HERE.parents[1] / "src"

#: case name -> ``repro`` arguments, without ``--out``.
CASES: Dict[str, List[str]] = {
    # The CLI's small campaign: healthy network, memory store, serial.
    "small-seed42": ["run", "--small", "--seed", "42"],
    # 50 skills per persona and one crawl under mild network faults.
    "interact-faulted-seed42": [
        "run", "--spec", str(SPECS_DIR / "interact-faulted.json"),
    ],
}


def run_case(name: str, out: Path) -> Dict[str, str]:
    """Run one case into ``out`` and return ``{file name: sha256}``.

    The CLI runs in a child interpreter, exactly as typed at a shell, so
    its logging set-up cannot leak into the calling process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro", *CASES[name], "--out", str(out), "--quiet"]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"golden case {name} exited with {done.returncode}:\n{done.stderr}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def save_digests(digests: Dict[str, Dict[str, str]]) -> None:
    DIGESTS_PATH.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
