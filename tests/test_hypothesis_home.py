"""The suite keeps hypothesis' and pytest-benchmark's storage out of the
working directory."""

from __future__ import annotations

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


def test_given_test_writes_no_hypothesis_or_benchmarks_dir_into_cwd(tmp_path):
    """A ``@given`` test run from another directory leaves neither
    ``.hypothesis`` nor ``.benchmarks`` there: tests/conftest.py points
    hypothesis' home at a per-session temporary directory, and
    pyproject.toml's ``-p no:benchmark`` keeps pytest-benchmark, whose
    configure hook creates ``.benchmarks``, from loading."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    target = os.path.join(TESTS, "test_net.py::test_fairness_never_oversubscribes_property")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", target],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    assert not (tmp_path / ".hypothesis").exists()
    assert not (tmp_path / ".benchmarks").exists()
