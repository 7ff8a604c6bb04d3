"""Regenerate the golden export digests in ``digests.json``.

Run from the repository root, only when an export change is intended::

    python tests/golden/update.py

It re-runs every case in :data:`golden_exports.CASES`, rewrites the
file and prints which digests changed, for the commit that carries it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from golden_exports import CASES, DIGESTS_PATH, load_digests, run_case, save_digests  # noqa: E402


def main() -> int:
    old = load_digests() if DIGESTS_PATH.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            new[name] = run_case(name, Path(tmp) / name)
    save_digests(new)
    changed = [
        f"{name}/{file}"
        for name, files in new.items()
        for file, digest in files.items()
        if old.get(name, {}).get(file) != digest
    ]
    print(f"wrote {DIGESTS_PATH}: {len(changed)} digest(s) changed")
    for entry in changed:
        print(f"  {entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
