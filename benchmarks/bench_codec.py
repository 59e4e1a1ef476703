"""zlib level trade-off of h5lite's block codec.

h5lite stores every zlib block at level 4.  This bench records what
levels 1, 4 and 6 would cost on the blocks `write_emd` stores for the
two real-data workloads of the end-to-end benchmark
(`benchmarks/e2e/`):

* the Fig. 3 movie: 8 x 256 x 256 float64 frames, one block per frame,
  nearly incompressible;
* the Fig. 2 quicklook cube: 64 x 64 x 1024 uint16 photon counts, one
  block per band of 4 rows (16 bands), highly compressible.

For each level it reports the stored ratio (stored bytes / raw bytes),
the stored MB and the single-thread encode and decode rates in MB of
raw data per second (median of repeated passes).  It is a record, not
a switch: a different level would change every stored byte.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

from repro.emd import EmdSignal, write_emd
from repro.emd.h5lite import H5LiteFile
from repro.instrument import MovieSpec, PicoProbe
from repro.rng import RngRegistry

from conftest import report

LEVELS = (1, 4, 6)
REPS = 5
MOVIE = "movie (8 chunks)"
QUICKLOOK = "quicklook (16 u2 bands)"


def _stored_blocks(signal: EmdSignal, path) -> list[np.ndarray]:
    """The blocks `write_emd` stores for ``signal``, read back from its
    file (both layouts chunk axis 0 only)."""
    write_emd(path, signal, compression="zlib")
    with H5LiteFile(path) as f:
        ds = f[f"data/{signal.name}/data"]
        step = ds.chunks[0]
        return [ds[i : i + step] for i in range(0, ds.shape[0], step)]


def _blocks(tmp_path) -> dict[str, list[np.ndarray]]:
    """The blocks h5lite writes for each workload's data (same specs and
    op-1 seeds as the end-to-end `movie` and `quicklook` workloads)."""
    probe = PicoProbe(RngRegistry(seed=1), operator="bench")
    movie, _ = probe.acquire_spatiotemporal(
        MovieSpec(n_frames=8, shape=(256, 256), n_particles=8, radius_range=(5.0, 11.0))
    )
    probe = PicoProbe(RngRegistry(seed=1), operator="bench")
    cube, _ = probe.acquire_hyperspectral(shape=(64, 64), n_channels=1024)
    return {
        MOVIE: _stored_blocks(movie, tmp_path / "movie.emd"),
        QUICKLOOK: _stored_blocks(cube, tmp_path / "quicklook.emd"),
    }


def _median_s(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _measure(blocks: list[np.ndarray], level: int) -> tuple[float, float, float, float]:
    raws = [b.reshape(-1).view(np.uint8) for b in blocks]
    raw_mb = sum(r.nbytes for r in raws) / 1e6
    stored = [zlib.compress(r, level) for r in raws]
    assert all(zlib.decompress(s) == r.tobytes() for s, r in zip(stored, raws))
    stored_mb = sum(len(s) for s in stored) / 1e6
    enc = _median_s(lambda: [zlib.compress(r, level) for r in raws])
    dec = _median_s(lambda: [zlib.decompress(s) for s in stored])
    return stored_mb / raw_mb, stored_mb, raw_mb / enc, raw_mb / dec


def test_zlib_level_tradeoff(output_dir, tmp_path):
    data = _blocks(tmp_path)
    assert len(data[MOVIE]) == 8 and len(data[QUICKLOOK]) == 16
    assert data[QUICKLOOK][0].dtype == np.uint16
    rows = {
        (name, level): _measure(blocks, level)
        for name, blocks in data.items()
        for level in LEVELS
    }

    lines = [
        f"{'data':<25}{'level':>6}{'stored ratio':>14}{'stored MB':>11}"
        f"{'encode MB/s':>13}{'decode MB/s':>13}"
    ]
    for (name, level), (ratio, stored_mb, enc, dec) in rows.items():
        lines.append(
            f"{name:<25}{level:>6}{ratio:>14.4f}{stored_mb:>11.3f}{enc:>13.1f}{dec:>13.1f}"
        )
    lines.append("h5lite stores at level 4; single thread, raw MB per second.")
    report("codec_zlib_levels", lines, output_dir)

    # The two layouts sit at opposite ends at every level: the movie
    # barely compresses, the count cube stores many times smaller.
    for level in LEVELS:
        assert rows[MOVIE, level][0] > 0.9
        assert rows[QUICKLOOK, level][0] * 5 < rows[MOVIE, level][0]
