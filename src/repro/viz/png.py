"""Minimal from-scratch PNG encoder.

matplotlib is unavailable in this environment, and the portal (Fig. 2) and
the annotated-movie output (Fig. 3) need raster images, so we implement
the subset of PNG we need: 8-bit grayscale and 8-bit RGB, zlib-compressed,
filter type 0 scanlines.  Encoding is vectorized — the filter byte is
prepended per row with a single ``np.hstack``, not a Python loop per
pixel.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["encode_png", "png_dimensions"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(kind: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF)
    )


def encode_png(image: np.ndarray, compress_level: int = 6) -> bytes:
    """Encode ``image`` as PNG bytes.

    ``image`` must be ``uint8`` with shape ``(H, W)`` (grayscale) or
    ``(H, W, 3)`` (RGB).
    """
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ValueError(f"PNG encoder expects uint8, got {arr.dtype}")
    if arr.ndim == 2:
        color_type = 0  # grayscale
        channels = 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type = 2  # truecolor
        channels = 3
    else:
        raise ValueError(f"unsupported image shape: {arr.shape}")
    h, w = arr.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("image must be non-empty")

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    flat = arr.reshape(h, w * channels)
    # Filter byte 0 ("None") prepended to every scanline, vectorized.
    scanlines = np.hstack(
        [np.zeros((h, 1), dtype=np.uint8), np.ascontiguousarray(flat)]
    )
    idat = zlib.compress(scanlines.tobytes(), compress_level)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def png_dimensions(data: bytes) -> tuple[int, int]:
    """``(width, height)`` from PNG bytes (validates the signature)."""
    if data[:8] != _SIGNATURE or data[12:16] != b"IHDR":
        raise ValueError("not a PNG")
    w, h = struct.unpack(">II", data[16:24])
    return w, h
