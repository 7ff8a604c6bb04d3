"""Golden export digests: the canonical campaigns' exports, byte for byte.

Unlike the pairwise equivalence suites (serial vs parallel, memory vs
segments), these pin absolute bytes, so a regression that every code
path shares still fails here.  Regenerate on purpose with
``python tests/golden/update.py`` and review the diff.
"""

import pytest

from golden_exports import CASES, load_digests, run_case

from repro.core.export import EXPORT_FILES


@pytest.mark.parametrize("name", sorted(CASES))
def test_export_digests_match_golden(name, tmp_path):
    expected = load_digests()[name]
    assert sorted(expected) == sorted(EXPORT_FILES)
    assert run_case(name, tmp_path / "out") == expected
