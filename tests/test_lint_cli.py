"""CLI surface: ``python -m repro lint`` argument handling, output
formats, exit codes, and the fail-on threshold."""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import main as repro_main
from repro.lint import cli as lint_cli
from repro.lint.cli import main as lint_main


@pytest.fixture(autouse=True)
def _cache_under_tmp(tmp_path, monkeypatch):
    """Runs that keep the default ``--cache`` write it under the test's
    temporary directory, not into the working directory."""
    monkeypatch.setattr(
        lint_cli, "DEFAULT_CACHE_PATH", str(tmp_path / ".repro-lint-cache.json")
    )


@pytest.fixture()
def dirty_tree(tmp_path):
    (tmp_path / "dirty.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "clean.py").write_text("def f(env):\n    return env.now\n")
    return tmp_path


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert lint_main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_exit_one_on_errors_with_text_report(dirty_tree, capsys):
    assert lint_main([str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "dirty.py:2" in out
    assert "1 error(s)" in out


def test_json_format_is_machine_readable(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "D101"
    assert payload[0]["path"].endswith("dirty.py")
    assert payload[0]["severity"] == "error"


def test_sarif_format_has_rules_and_results(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    assert "D101" in rules
    assert rules["D101"]["shortDescription"]["text"]  # summary from catalog
    result = run["results"][0]
    assert result["ruleId"] == "D101" and result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]
    assert region["artifactLocation"]["uri"].endswith("dirty.py")
    assert region["region"]["startLine"] == 2


def test_output_writes_report_to_file(dirty_tree, tmp_path, capsys):
    out_path = tmp_path / "report.sarif"
    code = lint_main(
        [str(dirty_tree), "--format", "sarif", "--output", str(out_path)]
    )
    assert code == 1  # writing a report does not mask the exit code
    printed = capsys.readouterr().out
    assert f"wrote 1 finding(s) to {out_path}" in printed
    assert json.loads(out_path.read_text())["runs"][0]["results"]


def test_select_restricts_rules(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--select", "D103"]) == 0
    assert lint_main([str(dirty_tree), "--select", "D101"]) == 1
    capsys.readouterr()


def test_unknown_rule_id_is_a_usage_error(dirty_tree, capsys):
    # D106/D107/S202/F303 were folded into N701/N703, N704, R504, F401;
    # F301/F302 checked next/start_at pointers, which flows no longer have
    for rid in ("Z123", "D106", "D107", "S202", "F303", "F301", "F302"):
        assert lint_main([str(dirty_tree), "--select", rid]) == 2
        assert f"unknown rule id: {rid}" in capsys.readouterr().out


def test_nonexistent_path_is_a_usage_error_not_a_traceback(capsys):
    assert lint_main(["/does/not/exist"]) == 2
    assert "no such file or directory" in capsys.readouterr().out


def test_list_rules_prints_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.splitlines()}
    assert {"D101", "S201", "F304", "F401", "R504", "N701"} <= listed
    assert not listed & {"D106", "D107", "S202", "F303", "F301", "F302"}


def test_fail_on_warn_threshold(tmp_path, capsys):
    # All shipped rules are errors; verify the threshold plumbing via a
    # clean tree (exit 0 either way) and the argparse choices contract.
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert lint_main([str(tmp_path), "--fail-on", "warn"]) == 0
    with pytest.raises(SystemExit):
        lint_main([str(tmp_path), "--fail-on", "nonsense"])
    capsys.readouterr()


def test_repro_main_lint_subcommand(dirty_tree, capsys):
    assert repro_main(["lint", str(dirty_tree)]) == 1
    assert "D101" in capsys.readouterr().out


def test_default_lint_target_is_the_package_root():
    import repro

    expected = os.path.dirname(os.path.abspath(repro.__file__))
    assert lint_cli._default_target() == expected


def test_repro_main_lint_without_paths_lints_the_default_target(
    dirty_tree, monkeypatch, capsys
):
    # Cleanliness of the shipped tree itself is test_lint_selfcheck's job;
    # here only the no-paths wiring is under test.
    monkeypatch.setattr(lint_cli, "_default_target", lambda: str(dirty_tree))
    assert repro_main(["lint", "--no-cache"]) == 1
    assert "D101" in capsys.readouterr().out


# -- incremental cache --------------------------------------------------------


def test_cache_warm_run_reports_full_hit_rate(dirty_tree, tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = [
        str(dirty_tree), "--cache", str(cache),
        "--format", "json", "--statistics",
    ]
    assert lint_main(args) == 1
    cold = json.loads(capsys.readouterr().out)
    assert cold["statistics"]["cache_hit_rate"] == 0.0
    assert cache.exists()
    assert lint_main(args) == 1
    warm = json.loads(capsys.readouterr().out)
    assert warm["statistics"]["cache_hit_rate"] == 1.0
    assert warm["statistics"]["files_cached"] == warm["statistics"]["files_total"]
    # unchanged bytes: every taint summary is served from the cache
    assert warm["statistics"]["taint_recomputed"] == 0
    # cached findings are byte-identical to analyzed ones
    assert warm["findings"] == cold["findings"]


def test_cache_invalidated_only_for_the_changed_file(dirty_tree, tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = [
        str(dirty_tree), "--cache", str(cache),
        "--format", "json", "--statistics",
    ]
    lint_main(args)
    capsys.readouterr()
    (dirty_tree / "clean.py").write_text("def f(env):\n    return env.now + 1\n")
    lint_main(args)
    stats = json.loads(capsys.readouterr().out)["statistics"]
    assert stats["files_analyzed"] == 1
    assert stats["files_cached"] == stats["files_total"] - 1
    # taint re-analysis is limited to exactly the changed file
    assert stats["taint_recomputed"] == 1


def test_no_cache_flag_disables_caching(dirty_tree, tmp_path, capsys):
    cache = tmp_path / "cache.json"
    lint_main([str(dirty_tree), "--cache", str(cache), "--no-cache"])
    assert not cache.exists()
    capsys.readouterr()


def test_json_without_statistics_stays_a_plain_list(dirty_tree, capsys):
    # the machine interface: no envelope unless --statistics asks for it
    assert lint_main([str(dirty_tree), "--no-cache", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list)


def test_statistics_text_block(dirty_tree, tmp_path, capsys):
    code = lint_main(
        [str(dirty_tree), "--cache", str(tmp_path / "c.json"), "--statistics"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "-- statistics --" in out
    assert "files analyzed" in out
    assert "cache hit rate" in out
    assert "wall time" in out
    assert "D101: 1" in out


# -- baseline ratchet ---------------------------------------------------------


def test_baseline_ratchet_suppresses_recorded_debt(dirty_tree, tmp_path, capsys):
    base = tmp_path / "base.json"
    code = lint_main(
        [str(dirty_tree), "--no-cache", "--write-baseline", "--baseline", str(base)]
    )
    assert code == 0
    assert "wrote baseline" in capsys.readouterr().out
    # the recorded debt no longer fails the run...
    assert lint_main([str(dirty_tree), "--no-cache", "--baseline", str(base)]) == 0
    capsys.readouterr()
    # ...but new findings still do
    (dirty_tree / "new.py").write_text("import random\nrandom.random()\n")
    assert lint_main([str(dirty_tree), "--no-cache", "--baseline", str(base)]) == 1
    out = capsys.readouterr().out
    assert "D103" in out and "D101" not in out


def test_baseline_suppression_count_in_statistics(dirty_tree, tmp_path, capsys):
    base = tmp_path / "base.json"
    lint_main(
        [str(dirty_tree), "--no-cache", "--write-baseline", "--baseline", str(base)]
    )
    capsys.readouterr()
    lint_main(
        [
            str(dirty_tree), "--no-cache", "--baseline", str(base),
            "--format", "json", "--statistics",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["statistics"]["suppressed_by_baseline"] == 1


def test_missing_baseline_is_a_usage_error(dirty_tree, capsys):
    code = lint_main(
        [str(dirty_tree), "--no-cache", "--baseline", "/does/not/exist.json"]
    )
    assert code == 2
    assert "no such baseline" in capsys.readouterr().out


# -- git changed-only mode ----------------------------------------------------


def test_changed_only_lints_only_modified_files(tmp_path, monkeypatch, capsys):
    import subprocess

    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "stale.py").write_text("import time\nt = time.time()\n")
    (repo / "fresh.py").write_text("x = 1\n")
    git = ["git", "-c", "user.email=t@t.invalid", "-c", "user.name=t"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-qm", "seed"], cwd=repo, check=True)
    (repo / "fresh.py").write_text("import random\nrandom.random()\n")
    monkeypatch.chdir(repo)
    assert lint_main([".", "--no-cache", "--changed-only"]) == 1
    out = capsys.readouterr().out
    # the committed-and-unchanged D101 in stale.py is out of scope
    assert "fresh.py" in out and "stale.py" not in out


def test_changed_only_includes_untracked_files(tmp_path, monkeypatch, capsys):
    import subprocess

    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "seed.py").write_text("x = 1\n")
    git = ["git", "-c", "user.email=t@t.invalid", "-c", "user.name=t"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-qm", "seed"], cwd=repo, check=True)
    (repo / "new.py").write_text("import time\ntime.time()\n")
    monkeypatch.chdir(repo)
    assert lint_main([".", "--no-cache", "--changed-only"]) == 1
    assert "new.py" in capsys.readouterr().out


def test_changed_only_outside_a_work_tree_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
    code = lint_main([".", "--no-cache", "--changed-only"])
    assert code == 2
    assert "requires a git work tree" in capsys.readouterr().out


def test_explain_prints_docs_and_example_pair(capsys):
    assert lint_main(["--explain", "N701"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("N701  [error]")
    assert "order-tainted value reaches a scheduling sink" in out
    # the docstring body and both example twins are shown
    assert "bad:" in out and "good:" in out
    assert "os.listdir(root)" in out
    assert "sorted(os.listdir(root))" in out


def test_explain_is_case_insensitive(capsys):
    assert lint_main(["--explain", "d101"]) == 0
    assert capsys.readouterr().out.startswith("D101")


def test_explain_unknown_rule_is_a_usage_error(capsys):
    assert lint_main(["--explain", "Z999"]) == 2
    assert "unknown rule id" in capsys.readouterr().out


def test_explain_examples_exist_for_every_n7_rule(capsys):
    for rid in ("N701", "N702", "N703", "N704", "N705"):
        assert lint_main(["--explain", rid]) == 0
        out = capsys.readouterr().out
        assert "bad:" in out and "good:" in out
