"""Tests for the simulated Dynamic PicoProbe instrument."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.instrument import (
    HYPERSPECTRAL_USE_CASE,
    SPATIOTEMPORAL_USE_CASE,
    FileCopier,
    MovieSpec,
    PicoProbe,
    UseCaseSpec,
    element_template,
    energy_axis,
    generate_movie,
    polyamide_film_phantom,
    simulate_trajectories,
    synthesize_cube,
)
from repro.instrument.acquisition import nominal_size_check
from repro.instrument.xray import bremsstrahlung
from repro.rng import RngRegistry
from repro.sim import Environment
from repro.storage import VirtualFS


# -- X-ray synthesis ----------------------------------------------------------


def test_energy_axis_monotone():
    e = energy_axis(512, ev_per_channel=10.0)
    assert len(e) == 512
    assert (np.diff(e) > 0).all()
    assert e[0] == pytest.approx(5.0)


def test_energy_axis_validates():
    with pytest.raises(ReproError):
        energy_axis(0)


def test_element_template_peaks_at_line():
    e = energy_axis(2048, ev_per_channel=10.0)
    t = element_template("Au", e)
    assert t.max() == pytest.approx(1.0)
    # strongest Au peak is the M-alpha line at 2122.9 eV
    assert abs(e[np.argmax(t)] - 2122.9) < 20


def test_element_template_unknown_element():
    with pytest.raises(ReproError, match="line table"):
        element_template("Unobtanium", energy_axis(128))


def test_bremsstrahlung_decreasing():
    e = energy_axis(512, ev_per_channel=20.0)
    c = bremsstrahlung(e, beam_energy_kev=300.0)
    assert c[0] == pytest.approx(1.0)
    assert (np.diff(c) <= 1e-12).all()


def test_synthesize_cube_shape_and_counts():
    rng = np.random.default_rng(0)
    comp = {"C": np.ones((8, 8)), "Au": np.zeros((8, 8))}
    e = energy_axis(256)
    cube = synthesize_cube(comp, e, rng, counts_per_pixel=1000.0)
    assert cube.shape == (8, 8, 256)
    assert cube.dtype == np.uint16  # photon counts, stored as counts
    # Per-pixel totals should be near the requested counts (Poisson).
    totals = cube.sum(axis=2)
    assert abs(totals.mean() - 1000.0) < 50


def test_synthesize_cube_composition_shows_in_spectrum():
    rng = np.random.default_rng(1)
    h = w = 6
    comp_c = {"C": np.ones((h, w))}
    comp_au = {"Au": np.ones((h, w))}
    e = energy_axis(1024)
    cube_c = synthesize_cube(comp_c, e, rng, poisson=False)
    cube_au = synthesize_cube(comp_au, e, rng, poisson=False)
    spec_c = cube_c.sum(axis=(0, 1))
    spec_au = cube_au.sum(axis=(0, 1))
    # Carbon peaks near 277 eV; gold near 2123 eV.
    assert e[np.argmax(spec_c)] < 600
    assert 1900 < e[np.argmax(spec_au)] < 2400


def test_synthesize_cube_validation():
    rng = np.random.default_rng(0)
    e = energy_axis(64)
    with pytest.raises(ReproError):
        synthesize_cube({}, e, rng)
    with pytest.raises(ReproError):
        synthesize_cube({"C": np.ones((4, 4)), "O": np.ones((5, 5))}, e, rng)
    with pytest.raises(ReproError):
        synthesize_cube({"C": -np.ones((4, 4))}, e, rng)
    with pytest.raises(ReproError):
        synthesize_cube({"C": np.ones(4)}, e, rng)


# -- phantoms -------------------------------------------------------------------


def test_polyamide_phantom_contents():
    comp, particles = polyamide_film_phantom((64, 64), np.random.default_rng(0))
    assert set(comp) == {"C", "N", "O", "Au", "Pb"}
    assert all(m.shape == (64, 64) for m in comp.values())
    assert all((m >= 0).all() for m in comp.values())
    assert len(particles) == 18  # 12 Au + 6 Pb
    assert {p.element for p in particles} == {"Au", "Pb"}


def test_phantom_particles_inside_frame():
    comp, particles = polyamide_film_phantom((96, 80), np.random.default_rng(3))
    for p in particles:
        assert 0 <= p.col - p.radius < p.col + p.radius <= 80
        assert 0 <= p.row - p.radius < p.row + p.radius <= 96


def test_phantom_too_small_rejected():
    with pytest.raises(ReproError):
        polyamide_film_phantom((4, 4))


# -- spatiotemporal -----------------------------------------------------------------


def test_trajectories_shape_and_bounds():
    spec = MovieSpec(n_frames=50, shape=(128, 128), n_particles=5, radius_range=(4, 8))
    pos, radii = simulate_trajectories(spec, np.random.default_rng(0))
    assert pos.shape == (50, 5, 2)
    assert radii.shape == (5,)
    assert (pos[..., 0] >= 0).all() and (pos[..., 0] <= 128).all()
    assert (pos[..., 1] >= 0).all() and (pos[..., 1] <= 128).all()


def test_trajectories_move():
    spec = MovieSpec(n_frames=20, shape=(128, 128), n_particles=3)
    pos, _ = simulate_trajectories(spec, np.random.default_rng(0))
    displacement = np.abs(pos[-1] - pos[0]).sum()
    assert displacement > 1.0


def test_movie_spec_validation():
    with pytest.raises(ReproError):
        simulate_trajectories(
            MovieSpec(n_frames=0, shape=(64, 64)), np.random.default_rng(0)
        )
    with pytest.raises(ReproError):
        simulate_trajectories(
            MovieSpec(n_frames=5, shape=(16, 16), radius_range=(10, 12)),
            np.random.default_rng(0),
        )


def test_generate_movie_particles_bright():
    spec = MovieSpec(
        n_frames=4, shape=(96, 96), n_particles=3, radius_range=(5, 8)
    )
    movie, truth = generate_movie(spec, np.random.default_rng(0))
    assert movie.shape == (4, 96, 96)
    assert movie.dtype == np.float64
    assert len(truth) == 4 and len(truth[0]) == 3
    for t in range(4):
        for p in truth[t]:
            peak = movie[t, int(p.row), int(p.col)]
            assert peak > spec.background_level + 5 * spec.background_noise


def test_generate_movie_deterministic():
    spec = MovieSpec(n_frames=3, shape=(64, 64), n_particles=2)
    m1, _ = generate_movie(spec, np.random.default_rng(7))
    m2, _ = generate_movie(spec, np.random.default_rng(7))
    np.testing.assert_array_equal(m1, m2)


# -- microscope -----------------------------------------------------------------


def test_picoprobe_hyperspectral_acquisition():
    probe = PicoProbe(RngRegistry(0), operator="alice")
    sig, particles = probe.acquire_hyperspectral(shape=(32, 32), n_channels=128, acquired_at=10.0)
    assert sig.data.shape == (32, 32, 128)
    assert sig.data.dtype == np.uint16
    assert sig.metadata.dtype == "<u2"
    assert sig.metadata.operator == "alice"
    assert sig.metadata.signal_type == "hyperspectral"
    assert sig.metadata.acquired_at == 10.0
    assert sig.metadata.microscope.detectors[0].name == "XPAD"
    assert len(particles) > 0
    assert sig.dims[2].units == "eV"


def test_picoprobe_spatiotemporal_acquisition():
    probe = PicoProbe(RngRegistry(0))
    spec = MovieSpec(n_frames=3, shape=(64, 64), n_particles=2)
    sig, truth = probe.acquire_spatiotemporal(spec, acquired_at=5.0)
    assert sig.data.shape == (3, 64, 64)
    assert sig.metadata.signal_type == "spatiotemporal"
    assert len(truth) == 3
    assert sig.dims[0].name == "time"


def test_picoprobe_acquisition_ids_unique():
    probe = PicoProbe(RngRegistry(0))
    s1, _ = probe.acquire_hyperspectral(shape=(32, 32), n_channels=32)
    s2, _ = probe.acquire_hyperspectral(shape=(32, 32), n_channels=32)
    assert s1.metadata.acquisition_id != s2.metadata.acquisition_id


def test_picoprobe_beam_energy_limits():
    probe = PicoProbe()
    probe.set_beam_energy(80.0)
    assert probe.state.beam_energy_kev == 80.0
    with pytest.raises(ValueError):
        probe.set_beam_energy(301.0)


def test_picoprobe_stage_moves():
    probe = PicoProbe()
    probe.move_stage(x_um=3.5, alpha_deg=12.0)
    assert probe.state.stage.x_um == 3.5
    assert probe.state.stage.alpha_deg == 12.0


# -- file copier -----------------------------------------------------------------


def test_use_case_specs_match_paper():
    assert HYPERSPECTRAL_USE_CASE.period_s == 30.0
    assert HYPERSPECTRAL_USE_CASE.file_size_bytes == 91e6
    assert SPATIOTEMPORAL_USE_CASE.period_s == 120.0
    assert SPATIOTEMPORAL_USE_CASE.file_size_bytes == 1200e6
    # declared sizes agree with the EMD size model for the tensor dims
    nominal_size_check(HYPERSPECTRAL_USE_CASE)
    nominal_size_check(SPATIOTEMPORAL_USE_CASE)


def test_use_case_validation():
    with pytest.raises(ReproError):
        UseCaseSpec("x", "hyperspectral", period_s=0, file_size_bytes=1, shape=(1,), dtype="<f8")
    with pytest.raises(ReproError):
        UseCaseSpec("x", "hyperspectral", period_s=1, file_size_bytes=0, shape=(1,), dtype="<f8")


@pytest.mark.parametrize("field_name", ["period_s", "file_size_bytes"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_use_case_rejects_non_finite_period_and_size(field_name, value):
    """A NaN or infinite period or size used to pass and fail late: a
    NaN period in the kernel, a NaN or infinite size in the fabric's
    scheduler, and an infinite period ran one file and reported success."""
    with pytest.raises(ReproError, match="finite and positive"):
        replace(HYPERSPECTRAL_USE_CASE, **{field_name: value})


def test_periodic_copier_emits_on_schedule():
    env = Environment()
    vfs = VirtualFS("user")
    copier = FileCopier(env, vfs, HYPERSPECTRAL_USE_CASE, mode="periodic")
    env.process(copier.run(until=95.0))
    env.run()
    times = [f.created_at for f in copier.emitted]
    assert times == [0.0, 30.0, 60.0, 90.0]
    assert len(vfs.listdir("/transfer")) == 4
    assert all(f.size_bytes == 91e6 for f in copier.emitted)


def test_gated_copier_waits_for_completion():
    env = Environment()
    vfs = VirtualFS("user")
    copier = FileCopier(env, vfs, HYPERSPECTRAL_USE_CASE, mode="gated")
    env.process(copier.run(until=200.0))

    # A fake flow executor that completes each flow 50 s after the file
    # appears (longer than the 30 s period → completion-gated spacing).
    def fake_flows(env):
        seen = 0
        while True:
            while len(copier.emitted) <= seen:
                yield env.timeout(1)
            seen += 1
            yield env.timeout(50)
            copier.notify_flow_complete()

    env.process(fake_flows(env))
    env.run(until=400)
    times = [f.created_at for f in copier.emitted]
    # Spacing is ~50s (the flow runtime), not the 30s period.
    gaps = np.diff(times)
    assert (gaps >= 49).all()


def test_gated_copier_respects_minimum_period():
    env = Environment()
    vfs = VirtualFS("user")
    copier = FileCopier(env, vfs, SPATIOTEMPORAL_USE_CASE, mode="gated")
    env.process(copier.run(until=500.0))

    def instant_flows(env):
        seen = 0
        while True:
            while len(copier.emitted) <= seen:
                yield env.timeout(0.5)
            seen += 1
            copier.notify_flow_complete()  # completes immediately

    env.process(instant_flows(env))
    env.run(until=600)
    gaps = np.diff([f.created_at for f in copier.emitted])
    assert (gaps >= 120).all()  # period still enforced


def test_copier_metadata_stamped():
    env = Environment()
    vfs = VirtualFS("user")
    copier = FileCopier(env, vfs, HYPERSPECTRAL_USE_CASE, mode="periodic")
    env.process(copier.run(until=31))
    env.run()
    md = copier.emitted[0].metadata
    assert md is not None
    assert md.signal_type == "hyperspectral"
    assert md.shape == (256, 256, 347)
    assert md.acquired_at == 0.0


def test_copier_rejects_unknown_mode():
    env = Environment()
    with pytest.raises(ReproError):
        FileCopier(env, VirtualFS("u"), HYPERSPECTRAL_USE_CASE, mode="bursty")


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=5, max_value=300), st.floats(min_value=100, max_value=2000))
def test_periodic_copier_count_property(period, horizon):
    """Property: a periodic copier emits ceil(horizon/period) files."""
    env = Environment()
    vfs = VirtualFS("user")
    uc = UseCaseSpec("t", "hyperspectral", period, 1e6, (4, 4, 4), "<f4")
    copier = FileCopier(env, vfs, uc, mode="periodic")
    env.process(copier.run(until=horizon))
    env.run()
    expected = int(np.ceil(horizon / period))
    assert len(copier.emitted) == expected
