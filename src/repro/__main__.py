"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``campaign``
    Run one or both Sec. 3.3 performance campaigns and print Table 1.
``portal``
    Run a short campaign and build the static portal site.
``quicklook``
    Acquire a real hyperspectral cube and run the Fig. 2 pipeline.
``lint``
    Run the determinism & flow-safety static analyzer (``repro.lint``).
``sanitize``
    Run a campaign under the DES schedule-race sanitizer, rerun it with
    the same-tick tie-break reversed, and diff the event traces.
``trace``
    Run a traced campaign and export spans (Chrome ``trace_event`` JSON
    and/or JSON-lines) plus a metrics CSV; prints the span-derived
    Table 1 timing aggregates.
``chaos``
    Run a campaign under a named fault-injection scenario and print the
    delivered-vs-dropped breakdown plus the recovery report.
``stream``
    Run the same campaign through both ingest paths (file pipeline vs
    :mod:`repro.stream`) and print the span-derived delivery-latency
    breakdown, optionally under a chaos scenario.
``integrity``
    Run a data-corruption campaign with the integrity ledger armed,
    scrub the stores, and print the span-derived audit: every injected
    corruption repaired or quarantined, with the file-vs-stream
    detection-latency breakdown.  ``--audit`` gates the exit status on
    zero silent acceptances.
``sweep``
    Run a grid of campaign variants across worker processes with a
    deterministic, submission-ordered merge (parallel == serial).

An invalid setting (a non-finite ``--duration``, a sweep use case not in
:data:`~repro.core.campaign.USE_CASES`, ...) or an unknown chaos scenario
name (``chaos``, ``stream --scenario``, ``integrity``, ``sweep
--scenarios``) is a usage error: exit status 2, checked before the
campaign is built.  So is a ``--duration`` too short for any flow run to
complete (``campaign``, ``trace``, ``sweep``), found once the campaign
has run: there is no Table 1 row or run summary to print.
"""

from __future__ import annotations

import argparse
import sys

from .core.campaign import USE_CASES


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .core import render_table1, run_campaign

    names = (
        ["hyperspectral", "spatiotemporal"] if args.use_case == "both" else [args.use_case]
    )
    rows = []
    for i, name in enumerate(names):
        res = run_campaign(
            name, duration_s=args.duration, seed=args.seed + i, copier_mode=args.mode
        )
        rows.append(res.table1())
    print(render_table1(rows))
    return 0


def _cmd_portal(args: argparse.Namespace) -> int:
    from .core import run_campaign
    from .portal import Portal

    res = run_campaign("hyperspectral", duration_s=args.duration, seed=args.seed)
    portal = Portal(res.testbed.portal_index)
    written = portal.build(args.output)
    print(f"{len(res.completed_runs)} flows completed; "
          f"{len(written)} portal pages under {args.output}")
    return 0


def _cmd_quicklook(args: argparse.Namespace) -> int:
    import os

    from .analysis import analyze_hyperspectral_file
    from .emd import write_emd
    from .instrument import PicoProbe
    from .rng import RngRegistry

    rngs = RngRegistry(args.seed)  # a bad seed exits 2 before anything is written
    os.makedirs(args.output, exist_ok=True)
    probe = PicoProbe(rngs, operator="cli-user")
    signal, _ = probe.acquire_hyperspectral(shape=(128, 128), n_channels=1024)
    emd = os.path.join(args.output, f"{signal.metadata.acquisition_id}.emd")
    write_emd(emd, signal, compression="zlib")
    record = analyze_hyperspectral_file(emd, args.output)
    print(f"wrote {emd}")
    print(f"detected elements: {', '.join(record['detected_elements'])}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .core.sanitize import sanitize_campaign
    from .lint.cli import render_report
    from .lint.diagnostics import Severity

    result = sanitize_campaign(
        args.use_case, duration_s=args.duration, seed=args.seed
    )
    diagnostics = result.diagnostics()
    report = render_report(diagnostics, args.fmt, tool_name="repro.sanitize")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"wrote {len(diagnostics)} finding(s) to {args.output}")
    else:
        print(report)
    if args.fmt == "text":
        verdict = (
            "schedule-clean: traces identical under reversed tie-break"
            if result.clean
            else "schedule races detected"
        )
        print(
            f"{args.use_case}: {len(result.forward.runs)} run(s), "
            f"{len(result.divergences)} trace divergence(s) — {verdict}"
        )
    threshold = Severity.parse(args.fail_on)
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from .core import run_campaign
    from .obs import (
        derive_runs,
        metrics_to_csv,
        run_summary_stats,
        spans_to_chrome,
        spans_to_jsonl,
    )

    from .errors import EmptyWindowError

    res = run_campaign(
        args.use_case, duration_s=args.duration, seed=args.seed, obs=True
    )
    obs = res.testbed.obs
    runs = derive_runs(obs.tracer.spans)
    if not any(r.status == "SUCCEEDED" for r in runs):
        raise EmptyWindowError(args.use_case, args.duration)
    os.makedirs(args.output, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(args.output, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    if args.fmt in ("chrome", "both"):
        emit("trace.json", spans_to_chrome(obs.tracer.spans))
    if args.fmt in ("jsonl", "both"):
        emit("trace.jsonl", spans_to_jsonl(obs.tracer.spans))
    emit("metrics.csv", metrics_to_csv(obs.metrics))

    stats = run_summary_stats(runs)
    print(
        f"{args.use_case}: {len(obs.tracer.spans)} spans, "
        f"{int(stats['total_runs'])} completed run(s)"
    )
    print(
        f"runtime min/mean/max: {stats['min_runtime_s']:.1f}/"
        f"{stats['mean_runtime_s']:.1f}/{stats['max_runtime_s']:.1f} s; "
        f"median overhead {stats['median_overhead_s']:.1f} s "
        f"({stats['median_overhead_pct']:.1f}%)"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import SCENARIOS, delivery_breakdown
    from .core import run_campaign

    if args.list:
        for name in sorted(SCENARIOS):
            plan = SCENARIOS[name]
            parts = []
            if plan.outages:
                parts.append(f"{len(plan.outages)} outage window(s)")
            if plan.degradations:
                parts.append(f"{len(plan.degradations)} link event(s)")
            if plan.node_failures is not None:
                parts.append(f"node failures p={plan.node_failures.prob}")
            if plan.watcher_crashes:
                parts.append(f"{len(plan.watcher_crashes)} watcher crash(es)")
            if plan.transfer_faults.transient_prob or plan.transfer_faults.corrupt_prob:
                parts.append("transfer faults")
            if plan.corruption is not None:
                c = plan.corruption
                parts.append(
                    f"chunk corruption p={c.chunk_corrupt_prob}, "
                    f"truncation p={c.chunk_truncate_prob}, "
                    f"{len(c.bitrot)} bit-rot window(s), "
                    f"metadata mismatch p={c.meta_mismatch_prob}"
                )
            print(f"{name:15s} {', '.join(parts)}")
        return 0

    result = run_campaign(
        args.use_case, chaos=args.scenario, duration_s=args.duration,
        seed=args.seed,
    )
    breakdown = delivery_breakdown(result)
    report = result.chaos.report()

    print(f"scenario {args.scenario!r} on {args.use_case}, "
          f"{args.duration:.0f} s, seed {args.seed}")
    print(f"injections: {len(report['injections'])}")
    for inj in report["injections"]:
        t = inj["t"]
        extra = ", ".join(
            f"{k}={v}" for k, v in sorted(inj.items()) if k not in ("t", "kind")
        )
        print(f"  t={t:8.1f}s  {inj['kind']:<18s} {extra}")
    print()
    total = breakdown["runs"]
    print(f"flow runs: {total}")
    for key in ("delivered", "degraded", "dead_lettered", "failed_other",
                "still_active"):
        n = breakdown[key]
        pct = 100.0 * n / total if total else 0.0
        print(f"  {key:<14s} {n:4d}  ({pct:5.1f}%)")
    print()
    print(f"flow retries: {report['flow_retries']}; "
          f"node failures: {report['node_failures']}; "
          f"gate rejections: {report['gate_rejections'] or '{}'}")
    print(f"backlog: {report['backlog_recovered']}/{report['backlog_total']} "
          f"caught up ({report['backlog_pending']} pending)")
    if report["recovery_latency_s"]:
        p = report["recovery_latency_s"]
        print(f"recovery latency p50/p95/max: "
              f"{p['p50']:.1f}/{p['p95']:.1f}/{p['max']:.1f} s")
    if report["dead_letters"]:
        print("dead letters:")
        for d in report["dead_letters"]:
            print(f"  {d}")
    return 1 if breakdown["still_active"] else 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .chaos import NO_CHAOS
    from .core import run_campaign
    from .obs import (
        derive_runs,
        derive_stream_sessions,
        format_ingest_comparison,
        ingest_comparison,
    )

    results = {}
    for mode in ("file", "stream"):
        results[mode] = run_campaign(
            args.use_case,
            duration_s=args.duration,
            seed=args.seed,
            obs=True,
            chaos=NO_CHAOS if args.scenario is None else args.scenario,
            ingest=mode,
        )
    runs = derive_runs(results["file"].testbed.obs.tracer.spans)
    sessions = derive_stream_sessions(results["stream"].testbed.obs.tracer.spans)
    label = f" under {args.scenario!r}" if args.scenario else ""
    print(f"{args.use_case}, {args.duration:.0f} s, seed {args.seed}{label}: "
          f"{len(runs)} file run(s) vs {len(sessions)} stream session(s)")
    renegotiations = sum(s.renegotiations for s in sessions)
    if renegotiations:
        print(f"stream renegotiations: {renegotiations} "
              f"(duplicates delivered: {sum(s.duplicates for s in sessions)})")
    print()
    print(format_ingest_comparison(ingest_comparison(runs, sessions)))
    return 0


def _cmd_integrity(args: argparse.Namespace) -> int:
    from .core import run_campaign
    from .integrity import audit_campaign, format_audit

    modes = ["file", "stream"] if args.ingest == "both" else [args.ingest]
    all_ok = True
    for mode in modes:
        result = run_campaign(
            args.use_case,
            chaos=args.scenario,
            duration_s=args.duration,
            seed=args.seed,
            obs=True,
            ingest=mode,
        )
        report = audit_campaign(result)
        print(
            f"scenario {args.scenario!r} on {args.use_case} "
            f"({mode} ingest), {args.duration:.0f} s, seed {args.seed}"
        )
        print(format_audit(report))
        ledger = result.ledger
        if ledger is not None and ledger.quarantined:
            print("quarantine dead-letter:")
            for q in ledger.quarantined:
                print(f"  t={q.at:8.1f}s  {q.path}  ({q.reason})")
        print()
        all_ok = all_ok and report.ok
    if args.audit:
        return 0 if all_ok else 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.sweep import run_sweep_cli

    return run_sweep_cli(args)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PicoProbe DataFlow reproduction (SC 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("campaign", help="run the Sec. 3.3 campaigns (Table 1)")
    p.add_argument(
        "use_case", nargs="?", default="both", choices=[*USE_CASES, "both"]
    )
    p.add_argument("--duration", type=float, default=3600.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", default="gated", choices=["gated", "periodic"])
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("portal", help="build a static portal from a campaign")
    p.add_argument("--output", default="portal_site")
    p.add_argument("--duration", type=float, default=1200.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_portal)

    p = sub.add_parser("quicklook", help="run the Fig. 2 content pipeline")
    p.add_argument("--output", default="quicklook_out")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=_cmd_quicklook)

    p = sub.add_parser(
        "lint", help="run the determinism & flow-safety static analyzer"
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="detect DES schedule races by reversing the same-tick tie-break",
    )
    p.add_argument(
        "use_case", nargs="?", default="hyperspectral", choices=list(USE_CASES)
    )
    p.add_argument("--duration", type=float, default=600.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fail-on", choices=["warn", "error"], default="error")
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text", dest="fmt"
    )
    p.add_argument(
        "--output", default=None, help="write the report to this path"
    )
    p.set_defaults(fn=_cmd_sanitize)

    p = sub.add_parser(
        "trace", help="run a traced campaign and export spans + metrics"
    )
    p.add_argument(
        "use_case", nargs="?", default="hyperspectral", choices=list(USE_CASES)
    )
    p.add_argument("--duration", type=float, default=1800.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--format", choices=["chrome", "jsonl", "both"], default="chrome", dest="fmt"
    )
    p.add_argument("--output", default="trace_out", help="output directory")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "chaos", help="run a campaign under a named fault-injection scenario"
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default="outage",
        help="scenario name (see --list)",
    )
    p.add_argument(
        "--use-case", default="hyperspectral", choices=list(USE_CASES)
    )
    p.add_argument("--duration", type=float, default=3600.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--list", action="store_true", help="list available scenarios and exit"
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "stream",
        help="compare file vs streaming ingest latency head-to-head",
    )
    p.add_argument(
        "use_case", nargs="?", default="hyperspectral", choices=list(USE_CASES)
    )
    p.add_argument("--duration", type=float, default=900.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--scenario", default=None,
        help="also inject a named chaos scenario (see `chaos --list`)",
    )
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "integrity",
        help="audit a corruption campaign: zero silent acceptances",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default="corruption",
        help="chaos scenario to audit (see `chaos --list`)",
    )
    p.add_argument(
        "--use-case", default="hyperspectral", choices=list(USE_CASES)
    )
    p.add_argument("--duration", type=float, default=3600.0, help="simulated seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ingest", default="both", choices=["file", "stream", "both"]
    )
    p.add_argument(
        "--audit", action="store_true",
        help="exit nonzero unless the audit proves zero silent acceptances",
    )
    p.set_defaults(fn=_cmd_integrity)

    p = sub.add_parser(
        "sweep",
        help="run a campaign grid across worker processes (parallel == serial)",
    )
    p.add_argument(
        "grid", nargs="?", default="chaos", choices=["chaos", "campaign"]
    )
    p.add_argument(
        "--scenarios", default=None,
        help="comma-separated chaos scenarios (default: all)",
    )
    p.add_argument("--use-cases", default="hyperspectral")
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--duration", type=float, default=3600.0, help="simulated seconds")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: cpu count; 1 = serial)",
    )
    p.add_argument(
        "--output", default=None, help="write outcome payloads to this JSON path"
    )
    p.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    from .errors import ChaosError, ConfigError, EmptyWindowError

    try:
        return args.fn(args)
    except (ChaosError, ConfigError, EmptyWindowError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
