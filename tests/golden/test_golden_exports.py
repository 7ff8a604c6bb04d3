"""Golden export digests: the canonical campaigns' exports, byte for byte.

Unlike the pairwise equivalence suites (serial vs parallel, memory vs
segments), these pin absolute bytes, so a regression that every code
path shares still fails here.  Regenerate on purpose with
``python tests/golden/update.py`` and review the diff.
"""

from pathlib import PurePosixPath

import pytest

from golden_exports import CASES, load_digests

from repro.core.export import EXPORT_FILES


@pytest.mark.parametrize("name", sorted(CASES))
def test_export_digests_match_golden(name, golden_run):
    expected = load_digests()[name]
    exports = [path for path in expected if not path.startswith("delta-")]
    by_dir = {}
    for path in map(PurePosixPath, exports):
        by_dir.setdefault(str(path.parent), []).append(path.name)
    assert by_dir and all(sorted(names) == sorted(EXPORT_FILES) for names in by_dir.values())
    _, digests = golden_run(name)
    assert digests == expected
