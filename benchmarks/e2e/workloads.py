"""The end-to-end benchmark's five workloads.

A workload says what one op does, how its outputs are checked, and
which model and layer numbers it yields.  Ops drive only public entry
points of ``repro``.  An op returns its raw outputs; everything that
inspects them (checks, model metrics, counts) runs outside the timed
region, and the raw outputs are dropped once summarized.

Op ``k`` of a run is seeded as ``seed * 1000 + k``; op 0 is the
warm-up.  The deterministic numbers of a run (simulated time-to-science,
failed fraction, per-layer counts) are taken over ops ``1..min_ops``,
which every run executes whatever its length, so they repeat exactly
for a given ``--seed``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis import (
    BlobDetector,
    IouTracker,
    LabelingSpec,
    annotate_video,
    build_search_document,
    calibrate,
    count_series,
    hand_label,
    identify_elements,
    intensity_figure_svg,
    movie_to_uint8,
    spectrum_figure_svg,
    sum_spectrum,
)
from repro.chaos import run_chaos_campaign
from repro.core import run_campaign
from repro.emd import EmdFile, write_emd
from repro.instrument import MovieSpec, PicoProbe
from repro.integrity import audit_spans
from repro.portal import Portal
from repro.rng import RngRegistry
from repro.search import SearchIndex

from tracing import NULL_SPANS, median_or_zero

__all__ = ["DES_LAYERS", "DATA_LAYERS", "build"]

#: DES-side layers, named after ``repro`` subpackages (``rng`` is the
#: top-level random-stream module).  Self time anywhere else in the
#: package or in the harness is ``other``.
DES_LAYERS = (
    "sim", "net", "flows", "transfer", "watcher", "compute", "search",
    "stream", "integrity", "chaos", "obs", "storage", "core", "emd",
    "instrument", "analysis", "auth", "testbed", "rng",
)

#: Data-plane layers: the span names the real-data ops record.
#: ``analysis.cast`` and ``analysis.detect`` are children of ``analysis``.
DATA_LAYERS = (
    "instrument", "emd.encode", "emd.decode", "analysis", "analysis.cast",
    "analysis.detect", "viz", "search", "portal",
)

Violations = list[str]


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- campaign (DES) workloads ---------------------------------------------------


def no_failed_runs(result: Any) -> Violations:
    return [
        f"{result.use_case.name}/{result.ingest}: flow run {r.run_id} FAILED ({r.error})"
        for r in result.runs
        if r.status.value == "FAILED"
    ]


def stream_fully_delivered(result: Any) -> Violations:
    out = []
    dups = sum(s.duplicates for s in result.stream_sessions)
    if dups:
        out.append(f"{result.use_case.name}/stream: {dups} duplicate chunk(s)")
    for s in result.stream_sessions:
        if s.status == "PUBLISHED" and not s.delivered.triggered:
            out.append(f"{s.session_id}: published before every chunk landed")
    return out


def drained_and_gated(result: Any) -> Violations:
    tag = f"{result.use_case.name}/{result.ingest}"
    out = [f"{tag}: run {r.run_id} left {r.status.value}" for r in result.runs if not r.status.terminal]
    out += [f"{tag}: session {s.session_id} left {s.status}" for s in result.stream_sessions if not s.terminal]
    if result.ledger is not None:
        index = result.testbed.portal_index
        indexed = {h.subject for h in index.query(limit=len(index)).hits}
        out += [
            f"{tag}: quarantined {q.path} is in the search index"
            for q in result.ledger.quarantined
            if q.subject in indexed
        ]
    return out


class CampaignWorkload:
    """One op runs a fixed list of simulated paper hours back to back."""

    side = "des"
    work_label = "sim_hours_per_s"

    def __init__(
        self,
        name: str,
        calls: Sequence[tuple[str, Callable[..., Any], dict[str, Any]]],
        checks: Sequence[Callable[[Any], Violations]],
        min_ops: int,
    ) -> None:
        self.name = name
        #: (span name, public entry point, keyword arguments) per hour.
        self.calls = tuple(calls)
        self.checks = tuple(checks)
        self.min_ops = min_ops
        self.units_per_op = float(len(self.calls))

    def prepare(self) -> None:
        """Campaign inputs are generated by the simulation from the seed."""

    def op(self, seed: int, spans: Any, **extra: Any) -> list[Any]:
        results = []
        for span, entry, kwargs in self.calls:
            with spans(span):
                results.append(entry(seed=seed, **kwargs, **extra))
        return results

    def summarize(self, results: list[Any]) -> dict[str, Any]:
        """Time-to-science of every record that reached a terminal state
        (file mode: flow runtime of succeeded runs; stream mode: end-to-end
        time of published sessions), and the check violations."""
        tts: list[float] = []
        records = failed = 0
        violations: Violations = []
        for result in results:
            if result.ingest == "file":
                done = [r for r in result.runs if r.status.terminal]
                ok = [r.runtime_seconds for r in done if r.status.value == "SUCCEEDED"]
            else:
                done = [s for s in result.stream_sessions if s.terminal]
                ok = [s.end_to_end_s for s in done if s.status == "PUBLISHED"]
            tts += ok
            records += len(done)
            failed += len(done) - len(ok)
            for check in self.checks:
                violations += check(result)
        return {"tts": tts, "records": records, "failed": failed, "violations": violations}

    def finish(
        self, summaries: list[dict[str, Any]], n_det: int
    ) -> tuple[dict[str, float], Violations]:
        """Model metrics over the first ``n_det`` (deterministic) ops and
        the violations of every op."""
        det = summaries[:n_det]
        tts = [t for s in det for t in s["tts"]]
        records = sum(s["records"] for s in det)
        failed = sum(s["failed"] for s in det)
        violations = [v for s in summaries for v in s["violations"]]
        if not tts:
            violations.append("no record reached science")
        return {
            "core.sim_tts_p50_s": _p(tts, 50),
            "core.sim_tts_p90_s": _p(tts, 90),
            "core.failed_frac": failed / records if records else 0.0,
        }, violations

    def counts(self, seeds: Sequence[int]) -> tuple[dict[str, float], Violations]:
        """Exact per-layer counts from ``obs=True, trace=True`` reruns of
        the given ops, plus the span audit.  The audit must find zero
        silent acceptances and no publication after a quarantine.  A
        detection it finds neither repaired nor quarantined is counted,
        not failed: a wire fault healed by a flow-level transfer retry
        emits no repair span, although the chain closes verified."""
        c: dict[str, float] = dict.fromkeys(
            ("events", "net_streams", "polls", "runs", "retries", "dead_letters",
             "transfer_tasks", "records", "chunks_sent", "naks", "retransmits",
             "renegotiations", "duplicates", "repairs", "quarantines", "unresolved",
             "injections"),
            0.0,
        )
        overheads: list[float] = []
        queue_waits: list[float] = []
        violations: Violations = []
        for seed in seeds:
            for result in self.op(seed, NULL_SPANS, obs=True, trace=True):
                tb = result.testbed
                spans = tb.obs.tracer.spans
                c["events"] += len(result.trace.lines)
                for s in spans:
                    if s.name == "net.stream":
                        c["net_streams"] += 1
                    elif s.name == "transfer.task":
                        c["transfer_tasks"] += 1
                    elif s.name == "integrity.repair":
                        c["repairs"] += 1
                    elif s.name == "integrity.quarantine":
                        c["quarantines"] += 1
                    elif s.name == "compute.queue_wait" and s.ended:
                        queue_waits.append(s.duration)
                for run in result.runs:
                    c["runs"] += 1
                    for step in run.steps:
                        c["polls"] += step.polls
                        c["retries"] += max(0, step.attempts - 1)
                    if run.status.value == "SUCCEEDED":
                        overheads.append(run.overhead_seconds)
                c["dead_letters"] += len(tb.flows.dead_letters)
                c["records"] += len(tb.portal_index)
                for s in result.stream_sessions:
                    c["chunks_sent"] += s.chunks_sent
                    c["naks"] += s.naks
                    c["retransmits"] += s.retransmits
                    c["renegotiations"] += s.renegotiations
                    c["duplicates"] += s.duplicates
                if result.chaos is not None:
                    c["injections"] += len(result.chaos.injections)
                audit = audit_spans(spans)
                c["unresolved"] += len(audit.unresolved_paths)
                if audit.silent or audit.publish_violations:
                    violations.append(
                        f"{result.use_case.name}/{result.ingest} seed {seed}: audit found "
                        f"{len(audit.silent)} silent acceptance(s) and "
                        f"{len(audit.publish_violations)} publish violation(s)"
                    )
        n = float(len(seeds))
        hours = n * self.units_per_op
        return {
            "sim.events_per_hour": c["events"] / hours,
            "net.streams_per_hour": c["net_streams"] / hours,
            "flows.polls_per_run": c["polls"] / c["runs"] if c["runs"] else 0.0,
            "flows.retries": c["retries"] / n,
            "flows.dead_letters": c["dead_letters"] / n,
            "flows.overhead_p50_s": median_or_zero(overheads),
            "transfer.tasks": c["transfer_tasks"] / n,
            "compute.queue_wait_p50_s": median_or_zero(queue_waits),
            "search.records": c["records"] / n,
            "stream.chunks_sent": c["chunks_sent"] / n,
            "stream.naks": c["naks"] / n,
            "stream.retransmits": c["retransmits"] / n,
            "stream.renegotiations": c["renegotiations"] / n,
            "stream.duplicates": c["duplicates"] / n,
            "integrity.repairs": c["repairs"] / n,
            "integrity.quarantines": c["quarantines"] / n,
            "integrity.unresolved": c["unresolved"] / n,
            "chaos.injections": c["injections"] / n,
        }, violations


# -- real-data workloads -----------------------------------------------------------


class _DataPlaneWorkload:
    """Shared shape of the Fig. 2 / Fig. 3 real-data ops."""

    side = "data"
    work_label = "acq_per_s"
    units_per_op = 1.0

    def __init__(self, name: str, min_ops: int, scratch: str) -> None:
        self.name = name
        self.min_ops = min_ops
        self.scratch = scratch

    def path(self, suffix: str) -> str:
        return os.path.join(self.scratch, f"{self.name}{suffix}")

    def layer_metrics(
        self,
        per_op: list[tuple[float, dict[str, float], float]],
        summaries: list[dict[str, Any]],
        n_det: int,
    ) -> dict[str, float]:
        """Per-layer busy time and share of each traced op (medians), the
        codec rates, the share of op wall time the top-level layer spans
        cover, and the stored ratio and detections of the first ``n_det``
        (deterministic) ops."""
        out: dict[str, float] = {}
        for name in DATA_LAYERS:
            out[f"{name}.busy_s"] = median_or_zero([b.get(name, 0.0) for _, b, _ in per_op])
            out[f"{name}.share"] = median_or_zero(
                [100.0 * b.get(name, 0.0) / wall for wall, b, _ in per_op]
            )
        out["span_coverage_frac"] = median_or_zero([cov / wall for wall, _, cov in per_op])
        pairs = list(zip(per_op, summaries))
        out["emd.encode.raw_mb_per_s"] = median_or_zero(
            [s["raw_bytes"] / 1e6 / b["emd.encode"] for (_, b, _), s in pairs]
        )
        out["emd.decode.raw_mb_per_s"] = median_or_zero(
            [s["raw_bytes"] / 1e6 / b["emd.decode"] for (_, b, _), s in pairs]
        )
        det = summaries[:n_det]
        out["emd.encode.stored_ratio"] = median_or_zero(
            [s["stored_bytes"] / s["raw_bytes"] for s in det]
        )
        out["analysis.detections"] = median_or_zero([float(s["detections"]) for s in det])
        return out


class QuicklookWorkload(_DataPlaneWorkload):
    """Fig. 2: acquire a hyperspectral cube, store it as a zlib EMD file
    (one contiguous block), read it back, reduce it, render both panels,
    publish the record and render its portal page."""

    shape = (64, 64)
    channels = 1024

    def prepare(self) -> None:
        self.emd_path = self.path(".emd")

    def op(self, seed: int, spans: Any) -> dict[str, Any]:
        with spans("instrument"):
            probe = PicoProbe(RngRegistry(seed=seed), operator="bench")
            signal, _ = probe.acquire_hyperspectral(shape=self.shape, n_channels=self.channels)
        with spans("emd.encode"):
            write_emd(self.emd_path, signal, compression="zlib")
        with spans("emd.decode"):
            with EmdFile(self.emd_path) as f:
                handle = f.signal()
                cube = handle.data.read()
                energies = handle.dim(3).values
                md = f.metadata()
        with spans("analysis"):
            hits = identify_elements(sum_spectrum(cube), energies)
            elements = sorted({h.element for h in hits})
        with spans("viz"):
            plots = {
                "intensity image": intensity_figure_svg(cube),
                "sum spectrum": spectrum_figure_svg(cube, energies),
            }
        with spans("search"):
            doc = build_search_document(
                md, plots=plots, data_location=self.emd_path,
                extra={"detected_elements": elements},
            )
            index = SearchIndex("quicklook")
            index.ingest(md.acquisition_id, doc)
        with spans("portal"):
            html = Portal(index).render_record(md.acquisition_id)
        return {"acquired": signal.data, "read": cube, "elements": elements, "html": html}

    def summarize(self, raw: dict[str, Any]) -> dict[str, Any]:
        found = set(raw["elements"])
        violations: Violations = []
        if not ({"C", "N", "O"} <= found and found & {"Au", "Pb"}):
            violations.append(f"quicklook identified {sorted(found)}, want C, N, O and Au or Pb")
        if raw["html"].count("<svg") < 2:
            violations.append("quicklook portal page embeds fewer than 2 SVGs")
        if not np.array_equal(raw["acquired"], raw["read"]):
            violations.append("quicklook EMD round trip changed the cube")
        return {
            "raw_bytes": float(raw["acquired"].nbytes),
            "stored_bytes": float(os.path.getsize(self.emd_path)),
            "detections": len(found),
            "violations": violations,
        }

    def finish(
        self, summaries: list[dict[str, Any]], n_det: int
    ) -> tuple[dict[str, float], Violations]:
        return {}, [v for s in summaries for v in s["violations"]]


class MovieWorkload(_DataPlaneWorkload):
    """Fig. 3: acquire a nanoparticle movie, store it as a zlib EMD file
    (one chunk per frame), read it back, cast, detect, track, burn the
    boxes into an annotated video and publish the record."""

    spec = MovieSpec(n_frames=8, shape=(256, 256), n_particles=8, radius_range=(5.0, 11.0))
    #: Fixed calibration movie: three 128x128 frames keep ``calibrate``
    #: under ~1 s while its parameters still count 256x256 frames well.
    calibration_spec = MovieSpec(n_frames=3, shape=(128, 128), n_particles=6, radius_range=(5.0, 11.0))
    calibration_seed = 424242
    #: Share of frames whose count must be within +-1 of ground truth.
    min_match_rate = 0.75

    def prepare(self) -> None:
        self.emd_path = self.path(".emd")
        self.video_path = self.path(".mpng")
        probe = PicoProbe(RngRegistry(seed=self.calibration_seed), operator="bench")
        signal, truth = probe.acquire_spatiotemporal(self.calibration_spec)
        labeled = hand_label(
            truth, LabelingSpec(every_nth=1), rng=np.random.default_rng(self.calibration_seed)
        )
        self.params, _ = calibrate(
            [signal.data[lf.frame_index] for lf in labeled], [lf.boxes for lf in labeled]
        )

    def op(self, seed: int, spans: Any) -> dict[str, Any]:
        conf = self.params.operating_confidence
        with spans("instrument"):
            probe = PicoProbe(RngRegistry(seed=seed), operator="bench")
            signal, truth = probe.acquire_spatiotemporal(self.spec)
        with spans("emd.encode"):
            write_emd(self.emd_path, signal, compression="zlib")
        with spans("emd.decode"):
            with EmdFile(self.emd_path) as f:
                movie = f.signal().data.read()
                md = f.metadata()
        with spans("analysis"):
            with spans("analysis.cast"):
                movie_u8 = movie_to_uint8(movie)
            with spans("analysis.detect"):
                detections = BlobDetector(self.params).detect_movie(movie)
            tracks = IouTracker(min_confidence=conf).run(detections)
            counts = count_series(detections, min_confidence=conf)
        with spans("viz"):
            frames = annotate_video(movie_u8, detections, self.video_path, confidence_threshold=conf)
        with spans("search"):
            doc = build_search_document(
                md, data_location=self.emd_path,
                extra={"particle_counts": [int(c) for c in counts], "tracks": len(tracks)},
            )
            index = SearchIndex("movie")
            index.ingest(md.acquisition_id, doc)
        return {
            "acquired": signal.data, "read": movie, "truth": truth,
            "counts": counts, "frames": frames,
        }

    def summarize(self, raw: dict[str, Any]) -> dict[str, Any]:
        truth = np.array([len(t) for t in raw["truth"]])
        violations: Violations = []
        if raw["frames"] != len(truth):
            violations.append(f"movie annotated {raw['frames']} of {len(truth)} frames")
        if not np.array_equal(raw["acquired"], raw["read"]):
            violations.append("movie EMD round trip changed the frames")
        return {
            "raw_bytes": float(raw["acquired"].nbytes),
            "stored_bytes": float(os.path.getsize(self.emd_path)),
            "detections": int(raw["counts"].sum()),
            "matched_frames": int(np.sum(np.abs(raw["counts"] - truth) <= 1)),
            "frames": len(truth),
            "violations": violations,
        }

    def finish(
        self, summaries: list[dict[str, Any]], n_det: int
    ) -> tuple[dict[str, float], Violations]:
        """The count check pools every frame of the run: single movies
        with touching particles miss it by design."""
        violations = [v for s in summaries for v in s["violations"]]
        frames = sum(s["frames"] for s in summaries)
        matched = sum(s["matched_frames"] for s in summaries)
        rate = matched / frames if frames else 0.0
        if rate < self.min_match_rate:
            violations.append(
                f"movie counts within +-1 of truth on {rate:.0%} of {frames} frames, "
                f"want >= {self.min_match_rate:.0%}"
            )
        return {"analysis.count_match_frac": rate}, violations


def _hour(use_case: str, ingest: str) -> tuple[str, Callable[..., Any], dict[str, Any]]:
    return ("core", run_campaign, {"use_case": use_case, "ingest": ingest})


def _chaos_hour(plan: str, ingest: str) -> tuple[str, Callable[..., Any], dict[str, Any]]:
    return ("chaos", run_chaos_campaign, {"plan": plan, "ingest": ingest})


def build(scratch: str) -> dict[str, Any]:
    """The five workloads; real-data ops write their files under ``scratch``."""
    return {
        w.name: w
        for w in (
            CampaignWorkload(
                "campaign-file",
                [_hour("hyperspectral", "file"), _hour("spatiotemporal", "file")],
                [no_failed_runs],
                min_ops=16,
            ),
            CampaignWorkload(
                "campaign-stream",
                [_hour("hyperspectral", "stream"), _hour("spatiotemporal", "stream")],
                [stream_fully_delivered],
                min_ops=4,
            ),
            CampaignWorkload(
                "campaign-chaos",
                [_chaos_hour("full-storm", "file"), _chaos_hour("full-storm", "stream"),
                 _chaos_hour("corruption", "file"), _chaos_hour("corruption", "stream")],
                [drained_and_gated],
                min_ops=4,
            ),
            QuicklookWorkload("quicklook", min_ops=4, scratch=scratch),
            MovieWorkload("movie", min_ops=4, scratch=scratch),
        )
    }
