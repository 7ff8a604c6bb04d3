"""Session-wide golden runs, so every check on a case shares one run."""

import pytest

from golden_exports import run_case


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """``golden_run(name)`` -> ``(out dir, digests)``, running each case once."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name) / "out"
            runs[name] = (out, run_case(name, out))
        return runs[name]

    return run
