"""The Sec. 3.3 performance campaigns, end to end.

A :class:`CampaignConfig` declares one campaign: the use case, its
duration and seed, the ingest path, the chaos plan and every other
setting, all checked before anything is built.  ``run_campaign`` runs
it: build the Argonne testbed, register the use case's combined
analysis function with its calibrated cost model, compose the Gladier
flow, start the periodic file copier and the watcher-triggered app, run
the simulated hour, and return the completed flow runs plus everything
needed for Table 1 / Fig. 4.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional

from ..chaos import ChaosController, ChaosPlan, NO_CHAOS, scenario
from ..errors import ConfigError, EmptyWindowError
from ..flows import FlowDefinition, FlowRun
from ..instrument import (
    HYPERSPECTRAL_USE_CASE,
    SPATIOTEMPORAL_USE_CASE,
    FileCopier,
    UseCaseSpec,
)
from ..obs import NULL_OBS, Observability
from ..sim import Environment
from ..testbed import DEFAULT_CALIBRATION, Calibration, Testbed, build_testbed
from ..units import hours
from ..watcher import SimObserver
from .app import FlowTriggerApp
from .extensions import (
    SPECTRAL_MOVIE_USE_CASE,
    CompressionSpec,
    LocalCompressProvider,
    analyze_virtual_spectral_movie,
    compressed_picoprobe_flow,
    spectral_movie_cost_model,
)
from .functions import (
    analyze_virtual_hyperspectral,
    analyze_virtual_spatiotemporal,
    hyperspectral_cost_model,
    spatiotemporal_cost_model,
)
from .stats import Table1Row, table1_row
from .tools import picoprobe_flow

__all__ = [
    "USE_CASES",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "use_case_by_name",
]

#: The named use cases: the paper's two Sec. 3.3 campaigns and the 4-D
#: future-work acquisition.  Every CLI ``use_case`` choice reads it.
USE_CASES: dict[str, UseCaseSpec] = {
    "hyperspectral": HYPERSPECTRAL_USE_CASE,
    "spatiotemporal": SPATIOTEMPORAL_USE_CASE,
    "spectral-movie": SPECTRAL_MOVIE_USE_CASE,
}

#: Signal type -> (combined analysis function, cost-model factory).
_ANALYSES = {
    "hyperspectral": (analyze_virtual_hyperspectral, hyperspectral_cost_model),
    "spatiotemporal": (analyze_virtual_spatiotemporal, spatiotemporal_cost_model),
    "spectral-movie": (analyze_virtual_spectral_movie, spectral_movie_cost_model),
}


def use_case_by_name(name: str) -> UseCaseSpec:
    try:
        return USE_CASES[name]
    except KeyError:
        raise ConfigError(f"unknown use case {name!r}") from None


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign, declared: every setting :func:`run_campaign` reads.

    Construction checks each field and every combination of them, so an
    invalid campaign fails here, before a testbed is built: a bad
    setting raises :class:`~repro.errors.ConfigError`, an unknown chaos
    scenario name :class:`~repro.errors.ChaosError`.
    """

    #: A :class:`~repro.instrument.UseCaseSpec`, or a :data:`USE_CASES` name.
    use_case: "UseCaseSpec | str"
    #: Simulated seconds the copier emits files for (finite, >= 0).
    duration_s: float = hours(1)
    #: Seeds every random stream of the testbed (a non-negative int).
    seed: int = 0
    #: ``"file"``: the paper's watcher -> transfer -> polled-flow
    #: pipeline.  ``"stream"``: chunked acquisitions go straight from the
    #: instrument host to the compute host over :mod:`repro.stream`, and
    #: the analysis starts on partial data.
    ingest: str = "file"
    #: A :class:`~repro.chaos.ChaosPlan`, or a
    #: :data:`~repro.chaos.SCENARIOS` name.  An enabled plan arms a
    #: :class:`~repro.chaos.ChaosController` before the clock starts and
    #: makes the campaign drain (see :func:`run_campaign`); the default
    #: :data:`~repro.chaos.NO_CHAOS` builds nothing.
    chaos: "ChaosPlan | str" = NO_CHAOS
    #: Arms the :class:`~repro.integrity.IntegrityLedger` (per-chunk
    #: stream digests with NAK/retransmit, transfer re-verification,
    #: verify-on-read and the digest-chain gate on search publication).
    #: ``None`` arms it exactly when the plan corrupts data; ``False``
    #: under a corrupting plan is refused, since every fault would be
    #: silent.
    integrity: Optional[bool] = None
    #: A :class:`~repro.core.extensions.CompressionSpec` inserts a
    #: compress-before-transfer flow state (file mode only).
    compression: Optional[CompressionSpec] = None
    #: ``"gated"``: the paper's pacing, next file at ``max(period,
    #: previous flow completion)`` (see DESIGN.md).  ``"periodic"``:
    #: strictly every period, so flows overlap (the contention ablation).
    copier_mode: str = "gated"
    calibration: Calibration = DEFAULT_CALIBRATION
    #: The kernel's same-tick order, ``"fifo"`` or ``"lifo"`` (see
    #: :mod:`repro.core.sanitize`).
    tiebreak: str = "fifo"
    #: Runs the kernel's schedule-race sanitizer; the result's
    #: ``testbed.env.sanitizer`` holds the same-tick hazards it saw.
    sanitize: bool = False
    #: Attaches an :class:`~repro.obs.Observability` bundle (span tracer
    #: and metrics registry) at ``result.testbed.obs``.
    obs: bool = False
    #: Attaches an :class:`~repro.sim.trace.EventTraceRecorder` at
    #: ``result.trace``: the event trace behind the golden traces.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.ingest not in ("file", "stream"):
            raise ConfigError(f"unknown ingest mode {self.ingest!r}")
        if self.spec.signal_type not in _ANALYSES:
            raise ConfigError(f"unknown signal type {self.spec.signal_type!r}")
        d = self.duration_s
        if not (isinstance(d, numbers.Real) and math.isfinite(d) and d >= 0):
            raise ConfigError(f"duration_s must be finite and >= 0, got {d!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.tiebreak not in ("fifo", "lifo"):
            raise ConfigError(
                f"tiebreak must be 'fifo' or 'lifo', got {self.tiebreak!r}"
            )
        if self.copier_mode not in ("gated", "periodic"):
            raise ConfigError(
                f"copier_mode must be 'gated' or 'periodic', got {self.copier_mode!r}"
            )
        if self.compression is not None:
            if self.ingest == "stream":
                raise ConfigError(
                    "compression is a file-mode flow state; streaming ingest "
                    "sends raw chunks"
                )
            if not isinstance(self.compression, CompressionSpec):
                raise ConfigError("compression must be a CompressionSpec")
        if self.plan.corrupts and not self.verified:
            raise ConfigError(
                "the chaos plan injects data corruption; running it without "
                "the integrity ledger (integrity=False) would make every "
                "fault silent"
            )

    @property
    def spec(self) -> UseCaseSpec:
        """The use case, resolved from its name if given one."""
        if isinstance(self.use_case, UseCaseSpec):
            return self.use_case
        return use_case_by_name(self.use_case)

    @property
    def plan(self) -> ChaosPlan:
        """The chaos plan, resolved from its scenario name if given one."""
        return self.chaos if isinstance(self.chaos, ChaosPlan) else scenario(self.chaos)

    @property
    def verified(self) -> bool:
        """Whether the campaign runs with the integrity ledger."""
        return self.plan.corrupts if self.integrity is None else bool(self.integrity)

    @property
    def name(self) -> str:
        """``<scenario>/<use case>-s<seed>-<tiebreak>-<duration>s``.  The
        scenario reads ``campaign`` for a clean run and ``chaos`` for an
        unnamed plan."""
        if isinstance(self.chaos, str):
            kind = self.chaos
        else:
            kind = "chaos" if self.chaos.enabled else "campaign"
        return (
            f"{kind}/{self.spec.name}"
            f"-s{self.seed}-{self.tiebreak}-{self.duration_s:.0f}s"
        )


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    #: The settings the campaign ran with.
    config: CampaignConfig
    testbed: Testbed
    #: The trigger application (a :class:`~repro.core.app.TriggerApp`):
    #: a :class:`FlowTriggerApp` launching flow runs in file mode, a
    #: :class:`~repro.stream.StreamIngestApp` launching stream sessions
    #: in stream mode.  Its ``records`` back :attr:`runs` /
    #: :attr:`stream_sessions`.
    app: Any
    copier: FileCopier
    #: The composed flow definition (file mode; None in stream mode).
    definition: Optional[FlowDefinition]
    #: The armed chaos controller, or None for a clean campaign.
    chaos: Optional[ChaosController] = None
    #: The campaign's directory observer (chaos watcher crashes target it).
    observer: Optional[SimObserver] = None
    #: The :class:`~repro.integrity.IntegrityLedger`, when the campaign
    #: ran with end-to-end verification (always set under chaos
    #: corruption); None otherwise.
    ledger: Any = None
    #: The :class:`~repro.sim.trace.EventTraceRecorder` of a
    #: ``trace=True`` campaign; None otherwise.
    trace: Any = None

    @property
    def use_case(self) -> UseCaseSpec:
        return self.config.spec

    @property
    def duration_s(self) -> float:
        return self.config.duration_s

    @property
    def ingest(self) -> str:
        """Which ingest path the campaign ran (``"file"`` | ``"stream"``)."""
        return self.config.ingest

    @property
    def runs(self) -> list[FlowRun]:
        if self.ingest != "file":
            return []
        return self.app.runs

    @property
    def stream_sessions(self) -> list:
        """Stream-mode sessions (empty in file mode)."""
        if self.ingest != "stream":
            return []
        return self.app.sessions

    @property
    def completed_runs(self) -> list[FlowRun]:
        if self.ingest != "file":
            return []
        return self.app.completed_runs

    def table1(self) -> Table1Row:
        if self.ingest != "file":
            raise ValueError(
                "Table 1 summarizes flow runs; stream-mode campaigns "
                "report through result.stream_sessions"
            )
        if not self.completed_runs:
            raise EmptyWindowError(self.use_case.name, self.duration_s)
        return table1_row(
            self.use_case.name,
            self.use_case.period_s,
            self.use_case.file_size_bytes,
            self.completed_runs,
        )


def run_campaign(
    use_case: "CampaignConfig | UseCaseSpec | str", **settings: Any
) -> CampaignResult:
    """Run one campaign: ``run_campaign(config)``, or
    ``run_campaign(use_case, **settings)``, which passes the settings on
    to :class:`CampaignConfig`.  A config runs as given; derive a changed
    one with :func:`dataclasses.replace`.  The config is checked before
    anything is built.

    The copier emits files for ``duration_s`` simulated seconds, and a
    clean campaign stops there: the paper's hour.  A campaign whose
    chaos plan is enabled then drains.  The event queue runs dry, so
    every in-flight record reaches a terminal state (the no-hung-runs
    guarantee), and backlog entries still pending because their outage
    outlived the window are caught up.  The controller, with its
    :meth:`~repro.chaos.controller.ChaosController.report`, is at
    ``result.chaos``.
    """
    if isinstance(use_case, CampaignConfig):
        if settings:
            raise ConfigError(
                f"run_campaign(config) takes no other settings, got "
                f"{sorted(settings)}; use dataclasses.replace(config, ...)"
            )
        config = use_case
    else:
        config = CampaignConfig(use_case, **settings)
    spec, plan, calibration = config.spec, config.plan, config.calibration
    env = Environment(sanitize=config.sanitize, tiebreak=config.tiebreak)
    recorder = None
    if config.trace:
        from ..sim.trace import EventTraceRecorder

        recorder = EventTraceRecorder(env)
    tb = build_testbed(
        env=env,
        seed=config.seed,
        calibration=calibration,
        obs=Observability(env) if config.obs else NULL_OBS,
    )
    ledger = None
    if config.verified:
        from ..integrity import IntegrityLedger

        ledger = IntegrityLedger(env, obs=tb.obs)
        tb.transfer.ledger = ledger

    fn, cost_model = _ANALYSES[spec.signal_type]
    cost = cost_model(calibration, tb.rngs)
    if ledger is not None and config.ingest == "file":
        # Verify-on-read: the analysis re-checks the staged copy's
        # payload against its declared checksum before computing, and
        # attests the ``analyzed`` chain hop on success.  (Stream mode
        # verifies per chunk on arrival instead — no staged copy.)
        base_fn = fn

        def verified_fn(file: dict) -> dict:
            ledger.verify_read(tb.eagle_fs, file)
            result = base_fn(file)
            ledger.attest(
                file["path"], "analyzed", digest=file["checksum"],
                at=env.now, by="compute",
            )
            return result

        fn = verified_fn
    function_id = tb.compute.register_function(fn, cost, name=f"{spec.name}-analysis")

    definition: Optional[FlowDefinition] = None
    publisher = None
    if config.ingest == "stream":
        from ..stream import StreamIngestApp, StreamPublisher, StreamReceiver

        receiver = StreamReceiver(
            env,
            host="polaris-mom",
            ingest_bytes_per_s=calibration.checksum_bytes_per_s,
            obs=tb.obs,
        )
        publisher = StreamPublisher(
            env,
            tb.fabric,
            receiver,
            src_host="picoprobe-user-machine",
            rngs=tb.rngs,
            efficiency=calibration.endpoint_efficiency,
            obs=tb.obs,
        )
        if ledger is not None:
            receiver.ledger = ledger
            # Wire digests come from the payload as it is at send time,
            # so at-rest rot mid-session surfaces on the wire.
            publisher.source_fs = tb.user_fs
        app = StreamIngestApp(tb, publisher, function_id, ledger=ledger)
    else:
        if config.compression is not None:
            tb.flows.register_provider(
                LocalCompressProvider(tb.env, tb.user_fs, tb.rngs)
            )
            definition = compressed_picoprobe_flow(
                tb.gladier, f"picoprobe-{spec.name}-compressed", config.compression
            )
        else:
            definition = picoprobe_flow(tb.gladier, f"picoprobe-{spec.name}")
        app = FlowTriggerApp(tb, definition, function_id, ledger=ledger)
    if ledger is not None:
        tb.flows.provider("search_ingest").ledger = ledger
    observer = SimObserver(tb.user_fs, prefix="/transfer")
    app.attach(observer)

    controller: Optional[ChaosController] = None
    if plan.enabled:
        controller = ChaosController(tb, plan, observer, stream=publisher)
        controller.install()

    copier = FileCopier(
        tb.env, tb.user_fs, spec, instrument=tb.instrument, mode=config.copier_mode
    )
    if config.copier_mode == "gated":
        app.on_complete.append(lambda run: copier.notify_flow_complete())
    tb.env.process(copier.run(until=config.duration_s))

    env.run(until=config.duration_s)
    if controller is not None:
        env.run()  # drain in-flight work past the campaign window
        if any(not e.recovered and e.error is None for e in tb.flows.backlog):
            env.process(controller.drain_remaining())
            env.run()
    return CampaignResult(
        config=config,
        testbed=tb,
        app=app,
        copier=copier,
        definition=definition,
        chaos=controller,
        observer=observer,
        ledger=ledger,
        trace=recorder,
    )
