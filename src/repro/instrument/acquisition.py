"""The Sec. 3.3 data generator: a periodic file copier.

To provide a controlled environment, the paper drives its 1-hour
experiments with an application that periodically copies a file into the
transfer directory of the PicoProbe user computer.  :class:`FileCopier`
reproduces that as a DES process emitting :class:`VirtualFile` records
into the user machine's :class:`~repro.storage.VirtualFS`.

Two pacing modes (see DESIGN.md, "Campaign gating"):

* ``"periodic"`` — strictly one file every ``period_s``;
* ``"gated"`` — the next file lands at
  ``max(last_emit + period_s, previous flow completion)``, matching the
  paper's configuration "based on the approximate time it takes each
  transfer to complete" and its observed run counts (72 / 18 per hour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from ..emd import SampleInfo
from ..emd.emdfile import estimate_emd_size
from ..errors import ReproError
from ..sim import Environment, Store
from ..storage import VirtualFS, VirtualFile
from ..units import MB
from .microscope import PicoProbe

__all__ = ["UseCaseSpec", "FileCopier", "HYPERSPECTRAL_USE_CASE", "SPATIOTEMPORAL_USE_CASE"]


@dataclass(frozen=True)
class UseCaseSpec:
    """One experimental use case as configured in Table 1."""

    name: str
    signal_type: str  # "hyperspectral" | "spatiotemporal"
    period_s: float  # start period (Table 1 row 1)
    file_size_bytes: float  # transfer volume (Table 1 row 2)
    shape: tuple[int, ...]  # nominal tensor dims of each file
    dtype: str
    sample: SampleInfo = field(default_factory=SampleInfo)

    def __post_init__(self) -> None:
        # ``0 < x < inf`` also rejects NaN.
        if not 0 < self.period_s < math.inf:
            raise ReproError(f"period must be finite and positive, got {self.period_s}")
        if not 0 < self.file_size_bytes < math.inf:
            raise ReproError(
                f"file size must be finite and positive, got {self.file_size_bytes}"
            )


#: Table 1, column "Hyperspectral": 91 MB files every 30 s.  A 256×256 map
#: with 347 float32 channels + container overhead lands at ~91 MB.
HYPERSPECTRAL_USE_CASE = UseCaseSpec(
    name="hyperspectral",
    signal_type="hyperspectral",
    period_s=30.0,
    file_size_bytes=MB(91),
    shape=(256, 256, 347),
    dtype="<f4",
    sample=SampleInfo(
        name="polyamide membrane + heavy metals",
        elements=("C", "N", "O", "Au", "Pb"),
    ),
)

#: Table 1, column "Spatiotemporal": 1200 MB files every 120 s — 600
#: frames of 500×500 float64.
SPATIOTEMPORAL_USE_CASE = UseCaseSpec(
    name="spatiotemporal",
    signal_type="spatiotemporal",
    period_s=120.0,
    file_size_bytes=MB(1200),
    shape=(600, 500, 500),
    dtype="<f8",
    sample=SampleInfo(
        name="Au nanoparticles on carbon",
        elements=("Au", "C"),
    ),
)


class FileCopier:
    """DES process emitting virtual EMD files into a staging directory.

    Parameters
    ----------
    env, vfs:
        Simulation environment and the user machine's filesystem.
    use_case:
        What to emit and how often.
    instrument:
        Stamps each file's metadata.
    mode:
        ``"periodic"`` or ``"gated"`` (see module docstring).
    directory:
        Staging directory inside ``vfs``.
    """

    def __init__(
        self,
        env: Environment,
        vfs: VirtualFS,
        use_case: UseCaseSpec,
        instrument: Optional[PicoProbe] = None,
        mode: str = "gated",
        directory: str = "/transfer",
    ) -> None:
        if mode not in ("periodic", "gated"):
            raise ReproError(f"unknown copier mode: {mode!r}")
        self.env = env
        self.vfs = vfs
        self.use_case = use_case
        self.instrument = instrument or PicoProbe()
        self.mode = mode
        self.directory = directory.rstrip("/")
        #: Flow-completion notifications (gated mode): the campaign pushes
        #: one token per finished flow.
        self.completions: Store = Store(env)
        self.emitted: list[VirtualFile] = []

    def notify_flow_complete(self) -> None:
        """Tell a gated copier that a flow finished (any outcome)."""
        self.completions.put(self.env.now)

    def run(self, until: float) -> Generator:
        """The copier process: emit files until sim time ``until``.

        Use as ``env.process(copier.run(until=3600))``.
        """
        uc = self.use_case
        index = 0
        while self.env.now < until:
            self._emit(index)
            index += 1
            period = self.env.timeout(uc.period_s)
            if self.mode == "gated":
                # Next emission waits for BOTH the period and the
                # completion of the flow this file triggered.
                gate = self.completions.get()
                yield self.env.all_of([period, gate])
            else:
                yield period

    def _emit(self, index: int) -> VirtualFile:
        uc = self.use_case
        md = self.instrument.stamp_metadata(
            uc.signal_type,
            uc.shape,
            uc.dtype,
            uc.sample,
            acquired_at=self.env.now,
        )
        path = f"{self.directory}/{uc.name}_{index:04d}.emd"
        f = self.vfs.create(
            path,
            size_bytes=uc.file_size_bytes,
            created_at=self.env.now,
            kind="emd",
            metadata=md,
        )
        self.emitted.append(f)
        return f


def nominal_size_check(use_case: UseCaseSpec, tolerance: float = 0.35) -> float:
    """Sanity ratio between a use case's declared file size and the EMD
    size model for its tensor dims (≈1 when consistent)."""
    est = estimate_emd_size(use_case.shape, np.dtype(use_case.dtype))
    ratio = use_case.file_size_bytes / est
    if not (1 - tolerance) <= ratio <= (1 + tolerance):
        raise ReproError(
            f"{use_case.name}: declared size {use_case.file_size_bytes:.3g} B "
            f"vs size model {est:.3g} B (ratio {ratio:.2f})"
        )
    return ratio
