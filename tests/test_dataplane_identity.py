"""Bit-identity gate for the vectorized data-plane kernels.

Every batched implementation is checked bit-for-bit (``array_equal`` on
float64 output, ``==`` on dataclass lists) against its frozen pre-PR
loop reference in ``tests/instrument_loops.py`` /
``tests/analysis_loops.py``, across seeds; the hyperspectral counts,
integers now, equal the float64 reference's counts by value.  No
tolerance is used anywhere: the vectorizations were chosen so float
accumulation order is preserved exactly, and this suite is what keeps
that true.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.detection import BlobDetector, Detection, DetectorParams, nms
from repro.analysis.hyperspectral import (
    identify_elements,
    intensity_figure_svg,
    spectrum_figure_svg,
    sum_spectrum,
)
from repro.emd import EmdFile, EmdSignal, SampleInfo, default_dims, write_emd
from repro.instrument import PicoProbe
from repro.instrument.phantoms import Particle, particle_mask, polyamide_film_phantom
from repro.instrument.spatiotemporal import MovieSpec, generate_movie
from repro.instrument.xray import ELEMENT_LINES, energy_axis, synthesize_cube
from repro.rng import RngRegistry

from tests import analysis_loops as aloops
from tests import instrument_loops as iloops

SEEDS = (0, 1, 2)


# -- instrument ------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_generate_movie_bit_identical(seed):
    spec = MovieSpec(n_frames=6, shape=(160, 160), n_particles=8)
    movie, truth = generate_movie(spec, np.random.default_rng(seed))
    ref_movie, ref_truth = iloops.generate_movie_loops(
        spec, np.random.default_rng(seed)
    )
    assert movie.dtype == ref_movie.dtype == np.float64
    assert np.array_equal(movie, ref_movie)
    assert truth == ref_truth


@pytest.mark.parametrize("seed", SEEDS)
def test_generate_movie_boundary_fallback_identical(seed):
    # Small frame + large radii: particle windows clip at the walls, so
    # the scalar boundary path runs alongside the batched interior path.
    spec = MovieSpec(n_frames=10, shape=(96, 96), n_particles=6,
                     radius_range=(6.0, 10.0))
    movie, truth = generate_movie(spec, np.random.default_rng(seed))
    ref_movie, ref_truth = iloops.generate_movie_loops(
        spec, np.random.default_rng(seed)
    )
    assert np.array_equal(movie, ref_movie)
    assert truth == ref_truth


@pytest.mark.parametrize("seed", SEEDS)
def test_particle_mask_bit_identical(seed):
    rng = np.random.default_rng(seed)
    particles = [
        Particle(row=float(r), col=float(c), radius=float(rad), element="Au")
        for r, c, rad in zip(
            rng.uniform(0, 128, 25), rng.uniform(0, 128, 25), rng.uniform(2, 12, 25)
        )
    ]
    got = particle_mask((128, 128), particles)
    ref = iloops.particle_mask_loops((128, 128), particles)
    assert np.array_equal(got, ref)


#: The Fig. 2 quicklook cube and an odd shape (H x W x E).
CUBE_SHAPES = ((64, 64, 1024), (37, 23, 200))


def _cube_inputs(seed, shape):
    """Phantom maps, energy axis and the generator they were drawn from."""
    rng = np.random.default_rng(seed)
    comp, _ = polyamide_film_phantom(shape[:2], rng)
    return comp, energy_axis(shape[2]), rng


@pytest.mark.parametrize("shape", CUBE_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_synthesize_cube_expectation_bit_identical(seed, shape):
    got = synthesize_cube(*_cube_inputs(seed, shape), poisson=False)
    ref = iloops.synthesize_cube_reference(*_cube_inputs(seed, shape), poisson=False)
    assert got.dtype == ref.dtype == np.float64
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("shape", CUBE_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_synthesize_cube_counts_equal_reference(seed, shape):
    got = synthesize_cube(*_cube_inputs(seed, shape))
    ref = iloops.synthesize_cube_reference(*_cube_inputs(seed, shape))
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)  # by value: the dtypes may differ


@pytest.mark.parametrize("shape", CUBE_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_acquire_hyperspectral_equals_reference(seed, shape):
    signal, _ = PicoProbe(RngRegistry(seed)).acquire_hyperspectral(
        shape=shape[:2], n_channels=shape[2]
    )
    rng = RngRegistry(seed).stream("instrument.hyperspectral")
    comp, _ = polyamide_film_phantom(shape[:2], rng)
    ref = iloops.synthesize_cube_reference(comp, energy_axis(shape[2]), rng)
    assert np.array_equal(signal.data, ref)


def test_synthesize_cube_widens_past_uint16(tmp_path):
    # A bright 4x4 map: counts pass 65,535, so the cube comes back in
    # the next unsigned type up, by value equal to the reference, and
    # round-trips through an EMD file.
    def inputs():
        rng = np.random.default_rng(3)
        comp = {"C": np.ones((4, 4)), "Au": rng.uniform(0.0, 1.0, (4, 4))}
        return comp, energy_axis(64), rng

    got = synthesize_cube(*inputs(), counts_per_pixel=5e6)
    ref = iloops.synthesize_cube_reference(*inputs(), counts_per_pixel=5e6)
    assert ref.max() > np.iinfo(np.uint16).max
    assert got.dtype == np.uint32
    assert np.array_equal(got, ref)

    md = PicoProbe().stamp_metadata("hyperspectral", got.shape, got.dtype.str, SampleInfo(), 0.0)
    signal = EmdSignal("bright", got, default_dims(got.shape, "hyperspectral"), md)
    path = tmp_path / "bright.emd"
    write_emd(path, signal, compression="zlib")
    with EmdFile(path) as f:
        back = f.signal().data.read()
    assert back.dtype == np.uint32
    assert np.array_equal(back, ref)


def test_quicklook_panels_same_from_counts_as_from_float64():
    # The Fig. 2 reductions of the uint16 counts sum exactly, so both
    # panels and the identified lines equal those of the float64 cube
    # with the same values.
    signal, _ = PicoProbe(RngRegistry(1000)).acquire_hyperspectral(
        shape=(64, 64), n_channels=1024
    )
    counts, energies = signal.data, signal.dims[2].values
    as_f8 = counts.astype(np.float64)
    assert counts.dtype == np.uint16
    assert intensity_figure_svg(counts) == intensity_figure_svg(as_f8)
    assert spectrum_figure_svg(counts, energies) == spectrum_figure_svg(as_f8, energies)
    assert identify_elements(sum_spectrum(counts), energies) == identify_elements(
        sum_spectrum(as_f8), energies
    )


# -- analysis: detection ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_detect_bit_identical(seed):
    spec = MovieSpec(n_frames=3, shape=(160, 160), n_particles=8)
    movie, _ = generate_movie(spec, np.random.default_rng(seed))
    params = DetectorParams()
    det = BlobDetector(params)
    for t in range(movie.shape[0]):
        assert det.detect(movie[t]) == aloops.detect_loops(movie[t], params)


@pytest.mark.parametrize("seed", SEEDS)
def test_detect_movie_bit_identical(seed):
    spec = MovieSpec(n_frames=5, shape=(160, 160), n_particles=8)
    movie, _ = generate_movie(spec, np.random.default_rng(seed))
    params = DetectorParams()
    got = BlobDetector(params).detect_movie(movie)
    ref = aloops.detect_movie_loops(movie, params)
    assert got == ref


def test_detect_movie_shape_preserved():
    # Satellite: detect_movie output stays a per-frame list of lists.
    spec = MovieSpec(n_frames=4, shape=(128, 128), n_particles=5)
    movie, _ = generate_movie(spec, np.random.default_rng(0))
    out = BlobDetector().detect_movie(movie)
    assert isinstance(out, list) and len(out) == 4
    assert all(isinstance(f, list) for f in out)
    assert all(isinstance(d, Detection) for f in out for d in f)


def test_detect_movie_blocking_invariant_to_block_size(monkeypatch):
    # The frame-block partition must not leak into results.
    from repro.analysis import detection as dmod

    spec = MovieSpec(n_frames=6, shape=(128, 128), n_particles=6)
    movie, _ = generate_movie(spec, np.random.default_rng(1))
    whole = BlobDetector().detect_movie(movie)
    monkeypatch.setattr(dmod, "_BLOCK_BYTES", movie[0].nbytes)  # 1 frame/block
    assert BlobDetector().detect_movie(movie) == whole


@pytest.mark.parametrize("seed", SEEDS)
def test_detect_movie_parallel_equals_serial_and_loops(seed, monkeypatch):
    # Frame blocks fan out over the worker pool; the merge keeps frame
    # order, so 1 and 2 workers both equal the per-frame loop.
    from repro import parallel

    spec = MovieSpec(n_frames=7, shape=(128, 128), n_particles=6)
    movie, _ = generate_movie(spec, np.random.default_rng(seed))
    params = DetectorParams()
    ref = aloops.detect_movie_loops(movie, params)
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        assert BlobDetector(params).detect_movie(movie) == ref, n


def test_annotate_video_parallel_byte_identical(tmp_path, monkeypatch):
    from repro import parallel
    from repro.analysis.video import annotate_video, movie_to_uint8

    spec = MovieSpec(n_frames=6, shape=(96, 96), n_particles=5)
    movie, _ = generate_movie(spec, np.random.default_rng(4))
    detections = BlobDetector().detect_movie(movie)
    assert any(detections)  # boxes are actually burnt in
    movie_u8 = movie_to_uint8(movie)
    videos = {}
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        path = tmp_path / f"w{n}.mpng"
        assert annotate_video(movie_u8, detections, path, confidence_threshold=0.0) == 6
        videos[n] = path.read_bytes()
    assert videos[1] == videos[2]


@pytest.mark.parametrize("seed", SEEDS)
def test_nms_bit_identical_dense(seed):
    rng = np.random.default_rng(seed)
    n = 300
    cands = [
        Detection(
            x0=float(x), y0=float(y), x1=float(x + s), y1=float(y + s),
            confidence=float(c), scale=2.0,
        )
        for x, y, s, c in zip(
            rng.uniform(0, 500, n), rng.uniform(0, 500, n),
            rng.uniform(5, 40, n), rng.uniform(0.0, 1.0, n),
        )
    ]
    for thr in (0.2, 0.4, 0.7):
        assert nms(cands, thr) == aloops.nms_loops(cands, thr)


def test_nms_tie_order_stable():
    # Equal confidences: stable sort must preserve input order, exactly
    # as the reference's sorted() did.
    a = Detection(x0=0, y0=0, x1=10, y1=10, confidence=0.5, scale=1.0)
    b = Detection(x0=100, y0=100, x1=110, y1=110, confidence=0.5, scale=1.0)
    assert nms([a, b], 0.5) == aloops.nms_loops([a, b], 0.5) == [a, b]
    assert nms([b, a], 0.5) == aloops.nms_loops([b, a], 0.5) == [b, a]
    assert nms([], 0.5) == []


# -- analysis: hyperspectral ----------------------------------------------

def _spectrum_with_lines(seed, n_elements=6, n_bins=2048):
    rng = np.random.default_rng(seed)
    energies = np.linspace(0.0, 20000.0, n_bins)
    spectrum = 50.0 * np.exp(-energies / 6000.0) + rng.poisson(
        5.0, size=energies.shape
    )
    for _el, lines in list(ELEMENT_LINES.items())[:n_elements]:
        for line in lines:
            spectrum += 400.0 * np.exp(
                -0.5 * ((energies - line.energy_ev) / 40.0) ** 2
            )
    return spectrum, energies


@pytest.mark.parametrize("seed", SEEDS)
def test_identify_elements_bit_identical(seed):
    spectrum, energies = _spectrum_with_lines(seed)
    got = identify_elements(spectrum, energies)
    ref = aloops.identify_elements_loops(spectrum, energies)
    assert got == ref
    assert len(got) > 0  # the workload actually exercises matching


def test_identify_elements_empty_and_no_match():
    energies = np.linspace(0.0, 20000.0, 512)
    flat = np.zeros_like(energies)
    assert identify_elements(flat, energies) == []
    # Peaks far from every tabulated line with a tiny tolerance.
    spectrum = np.zeros_like(energies)
    spectrum[100] = 1000.0
    got = identify_elements(spectrum, energies, tolerance_ev=1e-6)
    ref = aloops.identify_elements_loops(spectrum, energies, tolerance_ev=1e-6)
    assert got == ref == []


# -- both ingest modes end-to-end -----------------------------------------

@pytest.mark.parametrize("ingest", ["file", "stream"])
def test_campaign_trace_identical_across_ingest_modes(ingest):
    # The vectorized kernels sit under the campaign flows; identical
    # per-mode traces before/after vectorization are pinned by the
    # golden suite — here we re-assert the runs stay deterministic.
    from repro.core import run_campaign

    r1 = run_campaign("hyperspectral", duration_s=1800.0, seed=5, ingest=ingest, trace=True)
    r2 = run_campaign("hyperspectral", duration_s=1800.0, seed=5, ingest=ingest, trace=True)
    if ingest == "stream":
        assert len(r1.app.published_sessions) == len(r2.app.published_sessions) > 0
    else:
        assert len(r1.completed_runs) == len(r2.completed_runs) > 0
        assert [r.status for r in r1.runs] == [r.status for r in r2.runs]
    assert r1.trace.lines == r2.trace.lines
    assert r1.trace.lines
