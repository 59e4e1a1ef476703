"""Future-work extensions, quantified (Sec. 5 items + Sec. 3.2's 4-D case).

1. **Compression before transfer** (future-work item 2): a compress
   state on the user machine shrinks wire time.  An emergent subtlety
   the paper's own backoff produces: a *modest* codec (lz4-like, 1.5x)
   saves real transfer seconds but the exponential-polling boundaries
   swallow the gain — only a codec strong enough to push the transfer
   under the previous poll boundary (zstd-like, 2.1x) shortens flows.
2. **The 4-D spectral movie** (Sec. 3.2 future work): at ~9.6 GB per
   file, transfer dominates utterly and only ~2 flows complete per hour
   — the quantitative version of "vastly increasing the data volume".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_campaign
from repro.core.extensions import LZ4_LIKE, SPECTRAL_MOVIE_USE_CASE, ZSTD_LIKE
from repro.core.tools import TRANSFER_STATE

from conftest import report


def test_extension_compression(output_dir):
    zstd = run_campaign("spatiotemporal", seed=2, compression=ZSTD_LIKE)
    base = run_campaign("spatiotemporal", seed=2)
    lz4 = run_campaign("spatiotemporal", seed=2, compression=LZ4_LIKE)

    def stats(res):
        runs = res.completed_runs
        return (
            len(runs),
            float(np.mean([r.runtime_seconds for r in runs])),
            float(np.median([r.step(TRANSFER_STATE).active_seconds for r in runs])),
        )

    n_b, mean_b, xfer_b = stats(base)
    n_l, mean_l, xfer_l = stats(lz4)
    n_z, mean_z, xfer_z = stats(zstd)
    report(
        "extension_compression",
        [
            f"no compression : {n_b} runs/h, mean {mean_b:.0f}s, median transfer {xfer_b:.0f}s",
            f"lz4-like (1.5x): {n_l} runs/h, mean {mean_l:.0f}s, median transfer {xfer_l:.0f}s",
            f"zstd-like(2.1x): {n_z} runs/h, mean {mean_z:.0f}s, median transfer {xfer_z:.0f}s",
            "note: lz4 saves wire seconds but the polling boundary swallows",
            "them; zstd pushes the transfer under the previous poll and wins.",
        ],
        output_dir,
    )
    # Both codecs genuinely shrink the transfer step…
    assert xfer_l < xfer_b * 0.8
    assert xfer_z < xfer_b * 0.65
    # …but only the stronger codec shortens the *flow* (poll quantization).
    assert mean_z < mean_b * 0.8
    assert n_z > n_b
    assert abs(mean_l - mean_b) < mean_b * 0.15  # lz4 gain mostly swallowed


def test_extension_4d_spectral_movie(output_dir):
    res = run_campaign("spectral-movie", seed=3)
    runs = res.completed_runs
    assert runs, "at least one 4-D flow must complete in the hour"
    mean_rt = float(np.mean([r.runtime_seconds for r in runs]))
    xfer = float(np.median([r.step(TRANSFER_STATE).active_seconds for r in runs]))
    frac = xfer / mean_rt
    spatio = run_campaign("spatiotemporal", seed=3)
    n_spatio = len(spatio.completed_runs)
    report(
        "extension_4d",
        [
            f"file size      : {SPECTRAL_MOVIE_USE_CASE.file_size_bytes / 1e9:.1f} GB "
            f"(shape {SPECTRAL_MOVIE_USE_CASE.shape})",
            f"flows per hour : {len(runs)} (vs {n_spatio} for the 3-D movie)",
            f"mean runtime   : {mean_rt:.0f}s; transfer {xfer:.0f}s ({100 * frac:.0f}% of runtime)",
            "the paper's anticipated regime: data velocity outruns the",
            "1 Gbps site uplink long before the future 65 GB/s detectors.",
        ],
        output_dir,
    )
    # 8x the bytes → dramatically fewer flows, transfer-dominated.
    assert len(runs) <= n_spatio / 3
    assert frac > 0.45
    # With compression, the 4-D case completes more flows.
    zstd = run_campaign("spectral-movie", seed=3, compression=ZSTD_LIKE)
    assert len(zstd.completed_runs) >= len(runs)
