"""Session-wide test setup.

Hypothesis keeps its example database and its constants and unicode
caches under a home directory that defaults to ``./.hypothesis``.  Each
test session gets its own temporary home instead, removed at the end,
so running the suite writes nothing into the working directory.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = pytest.StashKey[str]()


def pytest_configure(config: pytest.Config) -> None:
    home = tempfile.mkdtemp(prefix="hypothesis-home-")
    config.stash[_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config: pytest.Config) -> None:
    home = config.stash.get(_HOME, None)
    if home is not None:
        set_hypothesis_home_dir(None)
        shutil.rmtree(home, ignore_errors=True)
