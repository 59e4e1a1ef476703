#!/usr/bin/env python3
"""End-to-end benchmark of the PicoProbe data-flow reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                         # every workload once
    python3 benchmarks/e2e/run.py --workload movie --seed 3
    python3 benchmarks/e2e/run.py --traced                # per-layer metrics
    python3 benchmarks/e2e/run.py --repeat 5              # spread against bounds
    python3 benchmarks/e2e/run.py --smoke                 # 2 ops per workload

With ``--workload`` one run happens in this process: one client, one
thread, ops back to back for ``--seconds`` seconds (closed loop).  Its
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  A
failed check exits 1.  Without ``--workload`` every workload runs in a
fresh subprocess, ``--repeat`` times, alternating the order.  Result
files and host spans go to ``benchmarks/e2e/out/``.  See README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per untraced run; setup_s is their median.  The first
#: set-up's imports are this process's own, the others' are timed in a
#: fresh interpreter.
SETUP_REPS = 3
SMOKE_OPS = 2
#: A traced data-plane op must spend at least this share of its wall
#: time inside layer spans, or the layer split is not trustworthy.
MIN_SPAN_COVERAGE = 0.9


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_program() -> Any:
    """Import the workloads against this checkout's ``src`` tree (never
    an installed copy), with native thread pools held to one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def host_fingerprint() -> dict[str, Any]:
    """Versions, cores and the time of the fixed calibration probe, so
    runs on different hosts can be compared."""
    import numpy
    import scipy
    from tracing import CalibrationProbe

    probe = CalibrationProbe()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "calibration_probe_s": statistics.median(probe() for _ in range(11)),
    }


def _fresh_import_s() -> float:
    """Time to import the workloads (and with them numpy, scipy and
    ``repro``) in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[:0] = {[SRC, HERE]!r}; import workloads; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout.split()[-1])


def _timed(fn: Any, *args: Any) -> tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# -- one workload, in this process ----------------------------------------------


@dataclass
class _Loop:
    """What the op loop of one run measured."""

    walls: list[float] = field(default_factory=list)
    #: Each op's wall time over the mean of the probes around it.
    costs: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    summaries: list[dict[str, Any]] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    traced_summaries: list[dict[str, Any]] = field(default_factory=list)
    spans: Any = None
    profile: Any = None
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0


def _op_loop(wl: Any, seed: int, floor: int, budget: float, traced: bool) -> _Loop:
    """Closed loop, one client: ops back to back until ``budget`` seconds
    have passed and at least ``floor`` ops ran, with a calibration probe
    between ops.  A traced run repeats each op with host spans (and under
    cProfile on the DES side), so the pair gives the tracing overhead."""
    from tracing import NULL_SPANS, CalibrationProbe, HostSpans

    probe = CalibrationProbe()
    run = _Loop(spans=HostSpans(), probes=[probe()])
    if traced and wl.side == "des":
        run.profile = cProfile.Profile()
    t_start = time.perf_counter()
    while run.attempted < floor or time.perf_counter() - t_start < budget:
        run.attempted += 1
        k = run.attempted
        op_seed = seed * 1000 + k
        try:
            raw, wall = _timed(wl.op, op_seed, NULL_SPANS)
            run.probes.append(probe())
            run.summaries.append(wl.summarize(raw))
            raw = None
            run.walls.append(wall)
            run.costs.append(2.0 * wall / (run.probes[-2] + run.probes[-1]))
            violations = run.summaries[-1]["violations"]
            if traced:
                with run.spans.op(k):
                    if run.profile is not None:
                        run.profile.enable()
                    try:
                        raw, wall = _timed(wl.op, op_seed, run.spans)
                    finally:
                        if run.profile is not None:
                            run.profile.disable()
                run.traced_summaries.append(wl.summarize(raw))
                raw = None
                run.traced_walls.append(wall)
                violations = violations + run.traced_summaries[-1]["violations"]
        except Exception:
            run.errors.append(f"op {k} (seed {op_seed}):\n{traceback.format_exc()}")
            run.failed += 1
            run.probes.append(probe())
            continue
        if violations:
            run.failed += 1
    run.seconds = time.perf_counter() - t_start
    return run


def _per_layer(
    wmod: Any, wl: Any, run: _Loop, seeds: list[int], info: dict[str, Any]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, and what their checks found."""
    out = {
        "trace_overhead_frac": statistics.median(run.traced_walls) / statistics.median(run.walls) - 1.0
    }
    if wl.side == "des":
        import repro
        from tracing import layer_self_shares

        shares = layer_self_shares(
            pstats.Stats(run.profile).stats, os.path.dirname(repro.__file__), wmod.DES_LAYERS
        )
        out.update({f"{name}.self_share": v for name, v in shares.items()})
        counts, violations = wl.counts(seeds)
        out.update(counts)
        total = sum(shares.values())
        if abs(total - 100.0) > 1.0:
            violations.append(f"layer self shares add up to {total:.2f}%, not 100%")
        return out, violations
    layer = wl.layer_metrics(run.spans.per_op(), run.traced_summaries, len(seeds))
    info["busy_s"] = {name: layer.pop(f"{name}.busy_s") for name in wmod.DATA_LAYERS}
    info["span_coverage_frac"] = coverage = layer.pop("span_coverage_frac")
    out.update(layer)
    if coverage < MIN_SPAN_COVERAGE:
        return out, [f"layer spans cover {coverage:.0%} of op wall time, want >= {MIN_SPAN_COVERAGE:.0%}"]
    return out, []


def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """One run of one workload in this process; prints the result line."""
    wmod = load_program()
    from tracing import NULL_SPANS

    import_s = time.perf_counter() - _START
    traced = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = wmod.build(scratch)[args.workload]
        floor = SMOKE_OPS if args.smoke else wl.min_ops
        setups = []
        for rep in range(1 if args.smoke or traced else SETUP_REPS):
            t0 = time.perf_counter()
            wl.prepare()
            wl.op(args.seed * 1000, NULL_SPANS)
            setups.append(time.perf_counter() - t0 + (_fresh_import_s() if rep else import_s))
        run = _op_loop(wl, args.seed, floor, 0.0 if args.smoke else float(args.seconds), traced)

        model, violations = wl.finish(run.summaries, floor) if run.walls else ({}, [])
        computed: dict[str, float] = dict(model)
        info: dict[str, Any] = {
            "ops": len(run.walls), "loop_s": run.seconds, "import_s": import_s, "setups_s": setups,
        }
        if run.walls:
            walls = run.walls
            info["op_wall_p50_s"] = statistics.median(walls)
            info["op_wall_p90_s"] = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
            info[wl.work_label] = wl.units_per_op * len(walls) / sum(walls)
            info["probe_p50_s"] = statistics.median(run.probes)
            if traced:
                seeds = [args.seed * 1000 + k for k in range(1, floor + 1)]
                layer, layer_violations = _per_layer(wmod, wl, run, seeds, info)
                computed.update(layer)
                violations += layer_violations
            else:
                computed.update(
                    op_cost_p50=statistics.median(run.costs),
                    work_per_kprobe=1000.0 * wl.units_per_op * len(walls) / sum(run.costs),
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    setup_s=statistics.median(setups),
                )

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    correct = not run.errors and not violations and run.failed == 0 and bool(run.walls)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(traced),
        "smoke": args.smoke,
        "host": host_fingerprint(),
        "result": result,
        "applies": sorted(set(computed) & set(metrics)),
        "model": model,
        "info": info,
        "violations": violations,
        "errors": run.errors,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(traced)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if traced:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(run.spans.chrome_trace(), fh)

    _print_run(record, declared)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _print_run(record: dict[str, Any], declared: list[dict[str, Any]]) -> None:
    info, host = record["info"], record["host"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"ops {info['ops']} in {info['loop_s']:.2f} s"
    )
    print(
        f"host: python {host['python']}  numpy {host['numpy']}  scipy {host['scipy']}  "
        f"nproc {host['nproc']}  calibration_probe_s {host['calibration_probe_s']:.5f}"
    )
    applies = set(record["applies"])
    for m in declared:
        value = record["result"]["metrics"][m["name"]]["value"]
        note = "" if m["name"] in applies else "  (n/a)"
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']}{note}")
    for key in ("op_wall_p50_s", "sim_hours_per_s", "acq_per_s", "op_wall_p90_s", "probe_p50_s",
                "span_coverage_frac"):
        if key in info:
            print(f"  {key:<28} {info[key]:>14.6g}  (information, n={info['ops']})")
    if record["trace"] == 0:
        for key, value in record["model"].items():
            print(f"  {key:<28} {value:>14.6g}  (deterministic model output)")
    for name, busy in info.get("busy_s", {}).items():
        print(f"  {name + '.busy_s':<28} {busy:>14.6g} s")
    for line in record["violations"] + record["errors"]:
        print(f"CHECK FAILED: {line}")


# -- many runs, each in a fresh subprocess ----------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict[str, Any]:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"FAILED: {workload} seed {seed} trace {trace} exited {proc.returncode}")
        return {}
    return result


def run_many(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = (0, 1) if args.smoke else (args.trace,)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    jobs = [
        (name, args.seed + rep, args.seconds, mode, args.smoke)
        for rep in range(args.repeat)
        for name in (names if rep % 2 == 0 else names[::-1])
        for mode in modes
    ]
    # Smoke runs only prove the benchmark works, so they use both cores;
    # measured runs go one at a time.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(lambda job: _child(*job), jobs))
    ok = all(results)
    values: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for (name, _, _, mode, _), result in zip(jobs, results):
        if result:
            values.setdefault((name, mode), []).append(result["metrics"])

    for mode in modes:
        print(f"\n== {'per-layer (traced)' if mode else 'end-to-end'} metrics, "
              f"{args.repeat} run(s) per workload, seeds {args.seed}..{args.seed + args.repeat - 1}")
        if mode == 0 and args.repeat == 1:
            _print_table(names, declared[0], values)
            continue
        for name in names:
            runs = values.get((name, mode), [])
            print(f"-- {name}  (n={len(runs)})")
            for m in declared[mode]:
                series = [r[m["name"]]["value"] for r in runs]
                if series and (mode == 0 or any(series)):
                    ok = _print_series(m, series) and ok
    summary = {
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": {f"{name}/trace{mode}": runs for (name, mode), runs in values.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    tag = "smoke" if args.smoke else f"repeat{args.repeat}-trace{args.trace}-seed{args.seed}"
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def _print_table(names: list[str], metrics: list[dict[str, Any]], values: dict) -> None:
    cols = [f"{m['name']} [{m['unit']}]" for m in metrics]
    print(f"{'workload':<16}" + "".join(f"{c:>22}" for c in cols))
    for name in names:
        for run in values.get((name, 0), []):
            print(f"{name:<16}" + "".join(f"{run[m['name']]['value']:>22.6g}" for m in metrics))


def _print_series(metric: dict[str, Any], series: list[float]) -> bool:
    """Median and quartiles of one metric; flags a spread beyond the
    metric's bound.  Returns False when flagged."""
    med = statistics.median(series)
    if len(series) < 2:
        print(f"  {metric['name']:<28} {med:>14.6g} {metric['unit']}")
        return True
    q1, _, q3 = statistics.quantiles(series, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    bound = metric.get("bound")
    flag = bound is not None and spread > bound
    limit = f" bound {100 * bound:.0f}%" if bound is not None else ""
    print(
        f"  {metric['name']:<28} median {med:>12.6g} {metric['unit']:<9} "
        f"q1 {q1:.6g} q3 {q3:.6g} spread {100 * spread:.2f}%{limit}"
        + ("  SPREAD EXCEEDS BOUND" if flag else "")
    )
    return not flag


def main(argv: "list[str] | None" = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names, help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"], help="measured seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--repeat", type=int, default=1, help="runs per workload, each in a fresh subprocess")
    p.add_argument("--smoke", action="store_true", help=f"{SMOKE_OPS} ops per run; both trace modes")
    args = p.parse_args(argv)
    if args.traced:
        args.trace = 1
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    if args.workload and args.repeat == 1:
        return run_workload(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
