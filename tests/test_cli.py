"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_campaign_command(capsys):
    rc = main(["campaign", "hyperspectral", "--duration", "600", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Total flow runs" in out
    assert "Hyperspectral" in out


def test_campaign_both(capsys):
    rc = main(["campaign", "both", "--duration", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Hyperspectral" in out and "Spatiotemporal" in out


def test_portal_command(tmp_path, capsys):
    rc = main(["portal", "--duration", "400", "--output", str(tmp_path / "site")])
    assert rc == 0
    assert (tmp_path / "site" / "index.html").exists()


def test_quicklook_command(tmp_path, capsys):
    rc = main(["quicklook", "--output", str(tmp_path / "ql")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detected elements" in out
    assert list((tmp_path / "ql").glob("*.emd"))


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_use_case():
    with pytest.raises(SystemExit):
        main(["campaign", "tomography"])


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "bogus"],
        ["integrity", "bogus"],
        ["stream", "--scenario", "bogus"],
        ["sweep", "--scenarios", "bogus"],
    ],
    ids=["chaos", "integrity", "stream", "sweep"],
)
def test_unknown_chaos_scenario_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "unknown scenario" in captured.err and "bogus" in captured.err
    assert captured.out == ""


def test_chaos_list_names_the_corruption_faults(capsys):
    assert main(["chaos", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [ln for ln in lines if ln.split()[0] == "corruption"]
    assert line.split(None, 1)[1] == (
        "transfer faults, chunk corruption p=0.04, truncation p=0.02, "
        "1 bit-rot window(s), metadata mismatch p=0.08"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("grid", ["campaign", "chaos"])
def test_unknown_sweep_use_case_is_a_usage_error(grid, jobs, capsys):
    argv = [
        "sweep", grid, "--use-cases", "hyperspectral,bogus",
        "--scenarios", "outage", "--seeds", "0", "--duration", "300",
        "--jobs", jobs,
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "unknown use case" in captured.err and "bogus" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "hyperspectral", "--duration", "inf"],
        ["trace", "--duration", "inf"],
        ["campaign", "--duration", "-5"],
        ["chaos", "outage", "--duration", "nan"],
        ["sweep", "campaign", "--duration", "-1"],
        ["integrity", "--seed", "-1"],
        ["sweep", "campaign", "--seeds", "a"],
        ["sweep", "campaign", "--seeds", ""],
        ["sweep", "campaign", "--jobs", "0"],
        ["sweep", "campaign", "--jobs", "-2"],
        ["quicklook", "--seed", "-1"],
    ],
    ids=["campaign-inf", "trace-inf", "campaign-negative", "chaos-nan",
         "sweep-negative", "integrity-seed", "sweep-seeds-word",
         "sweep-seeds-empty", "sweep-jobs-zero", "sweep-jobs-negative",
         "quicklook-seed"],
)
def test_invalid_setting_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    """Refused before the campaign is built.  Checked any later, the
    ``inf`` runs hang, a bad ``--jobs`` runs the sweep serially, and the
    others exit 1 with a traceback."""
    monkeypatch.chdir(tmp_path)  # a regressed command writes its output here
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, use_case, window",
    [
        (["campaign", "hyperspectral", "--duration", "30"], "hyperspectral", "30 s"),
        (["campaign", "spatiotemporal", "--duration", "300"], "spatiotemporal", "300 s"),
        (["trace", "spatiotemporal", "--duration", "300"], "spatiotemporal", "300 s"),
        (["sweep", "campaign", "--seeds", "1", "--duration", "30"], "hyperspectral", "30 s"),
    ],
    ids=["campaign-hyperspectral", "campaign-spatiotemporal", "trace", "sweep"],
)
def test_window_without_a_completed_run_is_a_usage_error(
    argv, use_case, window, capsys, tmp_path, monkeypatch
):
    """A window too short for any flow run to complete has no Table 1
    row or run summary: one stderr line naming the use case and the
    window, exit 2, instead of a ``ValueError`` traceback."""
    monkeypatch.chdir(tmp_path)  # `trace` writes under ./trace_out
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert use_case in line and window in line
