"""Smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` (2 ops per workload, untraced and traced) and
checks the result of every run: the checks passed, and every metric
declared in ``BENCHMARK.json`` is emitted with its declared unit and is
computed on each workload where its layer takes part.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

DES = ("campaign-file", "campaign-stream", "campaign-chaos")
DATA = ("quicklook", "movie")


def _applies(name: str, workload: str) -> bool:
    """Whether a per-layer metric is measured on ``workload``."""
    if name == "trace_overhead_frac":
        return True
    if name == "analysis.count_match_frac":
        return workload == "movie"
    if name.endswith(".self_share"):
        return workload in DES
    data_side = name.endswith(".share") or name.startswith(("emd.", "analysis."))
    return workload in (DATA if data_side else DES)


def test_smoke_emits_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in declared.items():
            path = os.path.join(HERE, "out", f"{workload}-seed0-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            result = record["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, record["violations"]
            assert result["attempted"] == 2
            assert set(result["metrics"]) == {m["name"] for m in metrics}
            for m in metrics:
                emitted = result["metrics"][m["name"]]
                assert emitted["unit"] == m["unit"], (workload, m["name"])
                if trace == 0 or _applies(m["name"], workload):
                    assert m["name"] in record["applies"], (workload, m["name"])
            if trace == 1 and workload in DES:
                total = sum(
                    v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")
                )
                assert abs(total - 100.0) <= 1.0
            if trace == 1 and workload in DATA:
                assert record["info"]["span_coverage_frac"] >= 0.9
