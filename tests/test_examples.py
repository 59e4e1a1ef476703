"""Smoke tests: the fast examples must run end to end, and every
example must import.

(The heavier demos — full-scale tracking, quicklook at 1024 channels —
are exercised by the benchmarks instead.)
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def load_example(name):
    path = os.path.join(EXAMPLES, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "name",
    sorted(f[:-3] for f in os.listdir(EXAMPLES) if f.endswith(".py")),
)
def test_example_imports(name):
    """Every name an example imports still exists.  Each example has a
    ``__main__`` guard, so loading it runs nothing."""
    load_example(name)


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "SUCCEEDED" in out
    assert "Published search record" in out


def test_portal_demo_runs(tmp_path, capsys):
    load_example("portal_demo").main(str(tmp_path))
    out = capsys.readouterr().out
    assert "public portal" in out
    assert (tmp_path / "public" / "index.html").exists()


def test_performance_campaign_runs(tmp_path, capsys):
    load_example("performance_campaign").main(str(tmp_path))
    out = capsys.readouterr().out
    assert "paper vs measured" in out
    assert (tmp_path / "fig4_hyperspectral.svg").exists()
    assert (tmp_path / "fig4_spatiotemporal.svg").exists()


def test_fault_tolerance_runs(capsys):
    mod = load_example("fault_tolerance")
    mod.faulty_network_campaign()
    mod.reboot_resume()
    out = capsys.readouterr().out
    assert "skipped by checkpoint" in out
