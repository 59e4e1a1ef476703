"""Extensions: the paper's stated future-work directions, implemented.

Sec. 5 lists "(2) data compression algorithms" as an active research
direction against the transfer bottleneck, and Sec. 3.2 sketches the
4-D use case ("an additional hyperspectral dimension … would result in
a 4-dimensional tensor, vastly increasing the data volume of each
file — we leave this use case to future work").  Both are built here:

* :class:`CompressionSpec` + :class:`LocalCompressProvider` — an extra
  flow state that compresses the file **on the user machine** before
  transfer (charged at a calibrated compress throughput), so the flow
  trades local CPU time for wire time;
* :func:`compressed_picoprobe_flow` — Compress → Transfer → Analyze →
  Publish;
* :data:`SPECTRAL_MOVIE_USE_CASE` — the 4-D (time × height × width ×
  energy) acquisition at ~9.6 GB per file, runnable through the same
  campaign machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from ..emd import AcquisitionMetadata, SampleInfo
from ..errors import FlowError
from ..flows import FlowState, FlowDefinition, GladierClient, GladierTool
from ..flows.action import ActionState, ActionStatus, check_body
from ..instrument import UseCaseSpec
from ..rng import RngRegistry, lognormal_from_median
from ..search.datacite import build_search_document
from ..sim import Environment
from ..storage import VirtualFS
from ..testbed.calibration import Calibration
from ..units import MB
from .tools import publish_tool, transfer_tool

__all__ = [
    "CompressionSpec",
    "LZ4_LIKE",
    "ZSTD_LIKE",
    "LocalCompressProvider",
    "compress_tool",
    "compressed_picoprobe_flow",
    "SPECTRAL_MOVIE_USE_CASE",
    "analyze_virtual_spectral_movie",
    "spectral_movie_cost_model",
]


# ---------------------------------------------------------------------------
# Future work (2): data compression before transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionSpec:
    """A compression codec's behaviour on EMD microscopy tensors."""

    name: str
    ratio: float  # compressed size = size / ratio
    compress_bytes_per_s: float  # user-machine throughput
    jitter_sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise FlowError(f"compression ratio must be >= 1, got {self.ratio}")
        if self.compress_bytes_per_s <= 0:
            raise FlowError("compress throughput must be positive")


#: Fast, modest ratio — detector floats are noisy, so ratios are small.
LZ4_LIKE = CompressionSpec("lz4-like", ratio=1.5, compress_bytes_per_s=450e6)
#: Slower, better ratio.
ZSTD_LIKE = CompressionSpec("zstd-like", ratio=2.1, compress_bytes_per_s=140e6)

CODECS = {c.name: c for c in (LZ4_LIKE, ZSTD_LIKE)}


class LocalCompressProvider:
    """Action provider: compress a staged file on the user machine.

    The action rewrites the file in place on the source filesystem at
    its compressed size (so the subsequent transfer state moves fewer
    bytes) and returns the updated file descriptor.
    """

    name = "local_compress"
    input_schema = {"file": "dict", "codec?": "str"}
    output_schema = {"file": "dict"}

    def __init__(
        self,
        env: Environment,
        user_fs: VirtualFS,
        rngs: "RngRegistry | None" = None,
    ) -> None:
        self.env = env
        self.user_fs = user_fs
        self.rngs = rngs or RngRegistry(0)
        self._ids = itertools.count(1)
        self._actions: dict[str, dict] = {}

    def run(self, body: dict[str, Any]) -> str:
        check_body(self.name, self.input_schema, body)
        codec_name = body.get("codec", LZ4_LIKE.name)
        try:
            codec = CODECS[codec_name]
        except KeyError:
            raise FlowError(
                f"unknown codec {codec_name!r}; available: {sorted(CODECS)}"
            ) from None
        file = dict(body["file"])
        action_id = f"compress-{next(self._ids):06d}"
        record = {
            "status": "ACTIVE",
            "started_at": self.env.now,
            "completed_at": None,
            "error": None,
            "file": None,
        }
        self._actions[action_id] = record
        self.env.process(self._drive(record, file, codec))
        return action_id

    def _drive(self, record: dict, file: dict, codec: CompressionSpec):
        size = float(file["size_bytes"])
        duration = lognormal_from_median(
            self.rngs.stream("compress.duration"),
            size / codec.compress_bytes_per_s,
            codec.jitter_sigma,
        )
        if duration > 0:
            yield self.env.timeout(duration)
        try:
            original = self.user_fs.stat(file["path"])
            compressed_size = size / codec.ratio
            self.user_fs.create(
                original.path,
                compressed_size,
                created_at=self.env.now,
                checksum=original.checksum,  # content identity preserved
                kind=original.kind,
                metadata=original.metadata,
                extra={"codec": codec.name, "original_bytes": size},
                overwrite=True,
            )
            new_file = dict(file)
            new_file["size_bytes"] = compressed_size
            new_file["codec"] = codec.name
            record["file"] = new_file
            record["status"] = "SUCCEEDED"
        except Exception as exc:
            record["status"] = "FAILED"
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["completed_at"] = self.env.now

    def status(self, action_id: str) -> ActionStatus:
        try:
            record = self._actions[action_id]
        except KeyError:
            raise FlowError(f"unknown compress action: {action_id!r}") from None
        if record["status"] == "ACTIVE":
            return ActionStatus(state=ActionState.ACTIVE)
        elapsed = record["completed_at"] - record["started_at"]
        if record["status"] == "FAILED":
            return ActionStatus(
                state=ActionState.FAILED, error=record["error"], active_seconds=elapsed
            )
        return ActionStatus(
            state=ActionState.SUCCEEDED,
            result={"file": record["file"]},
            active_seconds=elapsed,
        )


COMPRESS_STATE = "CompressData"


def compress_tool(codec: CompressionSpec = LZ4_LIKE) -> GladierTool:
    """Gladier tool: compress the staged file before transfer."""
    return GladierTool(
        name="picoprobe_compress",
        states=(
            FlowState(
                name=COMPRESS_STATE,
                provider="local_compress",
                parameters={"file": "$.input.file", "codec": codec.name},
            ),
        ),
    )


def compressed_picoprobe_flow(
    client: GladierClient, title: str, codec: CompressionSpec = LZ4_LIKE
) -> FlowDefinition:
    """Compress → Transfer → Analyze → Publish.

    The transfer state reads the (unchanged) source path — the compress
    state shrank the file in place — and the analysis state receives the
    compressed descriptor from the compress step's output.
    """
    analyze = GladierTool(
        name="picoprobe_analysis_compressed",
        states=(
            FlowState(
                name="AnalyzeData",
                provider="compute",
                parameters={
                    "endpoint": "$.input.compute_endpoint",
                    "function_id": "$.input.function_id",
                    "kwargs": {"file": f"$.states.{COMPRESS_STATE}.file"},
                },
            ),
        ),
    )
    return client.compose(
        title, [compress_tool(codec), transfer_tool(), analyze, publish_tool()]
    )


# ---------------------------------------------------------------------------
# Future work (Sec. 3.2): the 4-D spectral-movie use case
# ---------------------------------------------------------------------------

#: 600 frames of 200x200 pixels with 100 energy channels at float32:
#: ≈ 9.6 GB per file — the "vastly increased data volume" the paper
#: anticipates when a hyperspectral dimension is added to the movie.
SPECTRAL_MOVIE_USE_CASE = UseCaseSpec(
    name="spectral-movie",
    signal_type="spectral-movie",
    period_s=600.0,
    file_size_bytes=MB(9600),
    shape=(600, 200, 200, 100),
    dtype="<f4",
    sample=SampleInfo(
        name="Au nanoparticles on carbon (hyperspectral video)",
        elements=("Au", "C"),
    ),
)


def analyze_virtual_spectral_movie(file: dict[str, Any]) -> dict[str, Any]:
    """Combined 4-D analysis: per-frame spectral reduction + detection."""
    md = AcquisitionMetadata.from_json(file["metadata_json"])
    dest = file["dest_path"]
    stem = dest.rsplit(".", 1)[0]
    return build_search_document(
        md,
        data_location=dest,
        extra={
            "derived_products": {
                "annotated_video": f"{stem}_annotated.mpng",
                "elemental_timeseries": f"{stem}_elements.json",
            }
        },
    )


def spectral_movie_cost_model(cal: Calibration, rngs: "RngRegistry | None" = None):
    """4-D compute: spectral reduction per byte + per-frame inference."""
    rngs = rngs or RngRegistry(0)

    def model(args: tuple, kwargs: dict) -> float:
        file = kwargs.get("file") or (args[0] if args else {})
        gb = float(file.get("size_bytes", 0.0)) / 1e9
        shape = file["shape"]
        n_frames = shape[0] if shape else 0
        median = (
            cal.hyperspectral_analysis_s_per_gb * gb
            + cal.inference_s_per_frame * n_frames
        )
        return lognormal_from_median(
            rngs.stream("cost.spectral_movie"), median, cal.analysis_jitter_sigma
        )

    return model
