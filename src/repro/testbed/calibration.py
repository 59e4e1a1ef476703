"""Calibrated parameters of the Argonne-like testbed.

These numbers are **inputs** inferred from the paper's own arithmetic
(Table 1, Fig. 4 and the Sec. 3.3 narrative), not fitted outputs; the
reproduced quantities — overhead percentages, min/mean/max spreads, run
counts, cold-start maxima — emerge from the mechanisms (exponential
polling backoff, cold/warm nodes, shared links).  Derivations:

* **Effective transfer throughput.**  Median active time minus analysis
  and publication implies ≈ 7.3 MB/s for 91 MB files and ≈ 10.4 MB/s for
  1200 MB files; solving the ramp model ``rate(n) = R·n/(n+s)`` gives
  R ≈ 11.1 MB/s (8.9% of the 1 Gbps switch) and s ≈ 86 MB.
* **Flow-service transition latency.**  Overhead not explained by
  polling detection lag, spread over the flow's 4 transitions.
* **Cold-start budget.**  Max-minus-min flow runtimes bound PBS queue +
  node boot + Python-environment caching at ≈ 85 s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from ..errors import CalibrationError
from ..units import MB, Gbps

__all__ = ["Calibration", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """Every tunable of the testbed, in one auditable place."""

    # -- network (Sec. 2.1) --------------------------------------------------
    site_switch_bps: float = Gbps(1)  # user machines' 1 Gbps switch
    backbone_bps: float = Gbps(200)  # ANL backbone
    alcf_lan_bps: float = Gbps(200)  # ALCF internal fabric
    wan_latency_s: float = 0.002  # on-site round trips are sub-ms

    # -- transfer stack -----------------------------------------------------
    endpoint_efficiency: float = 0.089  # asymptotic share achieved (R)
    endpoint_ramp_bytes: float = MB(86)  # ramp scale (s)
    transfer_api_latency_s: float = 0.25
    transfer_startup_src_s: float = 1.0
    transfer_startup_dst_s: float = 0.5
    transfer_latency_sigma: float = 0.25
    transfer_throughput_sigma: float = 0.05
    checksum_bytes_per_s: float = 400e6

    # -- flows service --------------------------------------------------------
    transition_latency_s: float = 1.5
    transition_sigma: float = 0.35
    poll_latency_s: float = 0.15
    backoff_initial_s: float = 1.0  # "starts at 1 second
    backoff_factor: float = 2.0  # and doubles
    backoff_max_s: float = 600.0  # up to 10 minutes" (Sec. 3.3)

    # -- Polaris batch system ---------------------------------------------------
    polaris_nodes: int = 4
    pbs_queue_median_s: float = 15.0
    pbs_queue_sigma: float = 0.35
    node_boot_median_s: float = 20.0
    node_boot_sigma: float = 0.2
    env_cache_median_s: float = 30.0  # first-task Python library caching
    env_cache_sigma: float = 0.2
    node_idle_timeout_s: float = 900.0  # warm-node retention

    # -- compute service ---------------------------------------------------------
    compute_api_latency_s: float = 0.2
    compute_latency_sigma: float = 0.3

    # -- analysis cost models ---------------------------------------------------
    #: hyperspectral: load + reductions + metadata, per byte of cube.
    hyperspectral_analysis_s_per_gb: float = 33.0  # 91 MB → ≈ 3.0 s
    hyperspectral_analysis_floor_s: float = 0.5
    #: spatiotemporal: fp64→uint8 cast + encode dominates (Sec. 3.3),
    #: plus per-frame detector inference.
    conversion_s_per_gb: float = 30.0  # 1.2 GB → ≈ 36 s
    inference_s_per_frame: float = 0.013  # 600 frames → ≈ 7.8 s
    analysis_jitter_sigma: float = 0.12

    # -- publication ----------------------------------------------------------------
    search_ingest_latency_s: float = 0.8
    search_latency_sigma: float = 0.3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise CalibrationError(f"{f.name} must be finite and >= 0, got {value!r}")
        positive = (
            "site_switch_bps",
            "backbone_bps",
            "alcf_lan_bps",
            "endpoint_efficiency",
            "backoff_initial_s",
            "backoff_factor",
            "backoff_max_s",
            "polaris_nodes",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if not isinstance(self.polaris_nodes, numbers.Integral):
            raise CalibrationError(
                f"polaris_nodes must be an integer, got {self.polaris_nodes!r}"
            )
        if self.endpoint_efficiency > 1.0:
            raise CalibrationError("endpoint_efficiency must be <= 1")
        if self.backoff_max_s < self.backoff_initial_s:
            raise CalibrationError("backoff_max_s must be >= backoff_initial_s")

    # -- derived quantities used in docs/benches ------------------------------
    def effective_rate_bps(self, nbytes: float) -> float:
        """Calibrated per-task throughput for an uncontended transfer."""
        share = min(self.site_switch_bps, self.backbone_bps, self.alcf_lan_bps)
        frac = self.endpoint_efficiency * nbytes / (nbytes + self.endpoint_ramp_bytes)
        return share * frac

    def cold_start_budget_s(self) -> float:
        """Median extra latency the first flow pays on a fresh node."""
        return (
            self.pbs_queue_median_s
            + self.node_boot_median_s
            + self.env_cache_median_s
        )


DEFAULT_CALIBRATION = Calibration()
