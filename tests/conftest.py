"""Session-wide test setup.

Each test session gets its own temporary home, removed at the end, so
running the suite writes nothing into the working directory:

* hypothesis keeps its example database and its constants and unicode
  caches there, instead of under ``./.hypothesis``;
* pytest-benchmark, when it is installed, points its storage there
  instead of creating ``./.benchmarks``.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = pytest.StashKey[str]()


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config: pytest.Config) -> None:
    home = tempfile.mkdtemp(prefix="test-session-home-")
    config.stash[_HOME] = home
    set_hypothesis_home_dir(home)
    # tryfirst: pytest-benchmark's own pytest_configure creates the
    # storage directory, so the option must be redirected before it.
    if hasattr(config.option, "benchmark_storage"):
        config.option.benchmark_storage = "file://" + os.path.join(home, "benchmarks")


def pytest_unconfigure(config: pytest.Config) -> None:
    home = config.stash.get(_HOME, None)
    if home is not None:
        set_hypothesis_home_dir(None)
        shutil.rmtree(home, ignore_errors=True)
