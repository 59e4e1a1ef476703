"""EMD → video conversion: the spatiotemporal compute phase.

Sec. 3.3 pins the spatiotemporal compute cost on "converting raw EMD
files to MP4 format, which involves a slow data type casting operation
from fp64 to uint8".  We reproduce that pipeline with an open
container — **MPNG**, a length-prefixed sequence of PNG frames — keeping
the two dominant costs explicit and separately measurable:

1. the fp64 → uint8 cast (:func:`movie_to_uint8`), including the global
   normalization pass it forces over the tensor;
2. per-frame image encoding (:func:`write_video`).
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import FormatError
from ..parallel import imap_ordered
from ..viz import annotate_frame, encode_png
from ..viz.png import _SIGNATURE as PNG_SIGNATURE  # reuse the one constant

__all__ = [
    "movie_to_uint8",
    "write_video",
    "read_video",
    "annotate_video",
    "video_info",
]

MAGIC = b"MPNGVID1"


def movie_to_uint8(
    movie: np.ndarray,
    lo_percentile: float = 0.5,
    hi_percentile: float = 99.8,
) -> np.ndarray:
    """The paper's casting bottleneck: normalize a float tensor globally
    and cast to uint8.

    Percentile clipping keeps a few hot pixels from crushing contrast.
    """
    movie = np.asarray(movie)
    if movie.ndim != 3:
        raise FormatError(f"movie must be (T, H, W), got {movie.shape}")
    lo, hi = np.percentile(movie, [lo_percentile, hi_percentile])
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return np.zeros(movie.shape, dtype=np.uint8)
    scaled = (movie.astype(np.float64) - lo) * (255.0 / (hi - lo))
    return np.clip(scaled, 0, 255).astype(np.uint8)


def write_video(
    path: "str | os.PathLike",
    frames: Iterable[np.ndarray],
    fps: float = 25.0,
) -> int:
    """Write uint8 frames (gray or RGB) to an MPNG container.

    Returns the number of frames written.  Layout::

        MAGIC | f64 fps | u32 n_frames | n x (u32 length | PNG bytes)

    (n_frames is back-patched after streaming.)  ``frames`` is consumed
    lazily on this thread; each frame's PNG is encoded on the worker
    pool and written here, in frame order.
    """
    if fps <= 0:
        raise FormatError(f"fps must be positive, got {fps}")
    n = 0
    with open(os.fspath(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<d", float(fps)))
        count_pos = fh.tell()
        fh.write(struct.pack("<I", 0))
        for png in imap_ordered(encode_png, frames):
            fh.write(struct.pack("<I", len(png)))
            fh.write(png)
            n += 1
        fh.seek(count_pos)
        fh.write(struct.pack("<I", n))
    return n


def video_info(path: "str | os.PathLike") -> tuple[int, float]:
    """(n_frames, fps) from an MPNG header."""
    with open(os.fspath(path), "rb") as fh:
        header = fh.read(len(MAGIC) + 8 + 4)
    if header[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not an MPNG video")
    (fps,) = struct.unpack("<d", header[len(MAGIC) : len(MAGIC) + 8])
    (n,) = struct.unpack("<I", header[len(MAGIC) + 8 :])
    return n, fps


def read_video(path: "str | os.PathLike") -> Iterator[bytes]:
    """Yield raw PNG payloads frame by frame."""
    with open(os.fspath(path), "rb") as fh:
        head = fh.read(len(MAGIC) + 8 + 4)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not an MPNG video")
        (n,) = struct.unpack("<I", head[len(MAGIC) + 8 :])
        for _ in range(n):
            raw = fh.read(4)
            if len(raw) != 4:
                raise FormatError(f"{path}: truncated video")
            (length,) = struct.unpack("<I", raw)
            png = fh.read(length)
            if len(png) != length or png[:8] != PNG_SIGNATURE:
                raise FormatError(f"{path}: corrupt frame payload")
            yield png


def annotate_video(
    movie_u8: np.ndarray,
    detections_per_frame: Sequence[Sequence],
    out_path: "str | os.PathLike",
    fps: float = 25.0,
    confidence_threshold: float = 0.5,
) -> int:
    """Burn detection boxes into every frame and write the annotated
    MPNG (the flow's Fig. 3 output artifact)."""
    movie_u8 = np.asarray(movie_u8)
    if movie_u8.ndim != 3 or movie_u8.dtype != np.uint8:
        raise FormatError("annotate_video wants a (T, H, W) uint8 movie")
    if len(detections_per_frame) != movie_u8.shape[0]:
        raise FormatError(
            f"{len(detections_per_frame)} detection lists for "
            f"{movie_u8.shape[0]} frames"
        )

    def frames() -> Iterator[np.ndarray]:
        for t in range(movie_u8.shape[0]):
            yield annotate_frame(
                movie_u8[t],
                detections_per_frame[t],
                confidence_threshold=confidence_threshold,
            )

    return write_video(out_path, frames(), fps=fps)
