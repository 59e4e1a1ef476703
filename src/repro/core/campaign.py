"""The Sec. 3.3 performance campaigns, end to end.

``run_campaign`` reproduces one of the paper's two independent 1-hour
experiments: build the Argonne testbed, register the use case's combined
analysis function with its calibrated cost model, compose the Gladier
flow, start the periodic file copier and the watcher-triggered app, run
the simulated hour, and return the completed flow runs plus everything
needed for Table 1 / Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..chaos import ChaosController, ChaosPlan, NO_CHAOS
from ..flows import FlowDefinition, FlowRun
from ..instrument import (
    HYPERSPECTRAL_USE_CASE,
    SPATIOTEMPORAL_USE_CASE,
    FileCopier,
    UseCaseSpec,
)
from ..obs import Observability
from ..sim import Environment
from ..testbed import DEFAULT_CALIBRATION, Calibration, Testbed, build_testbed
from ..transfer import NO_FAULTS, FaultPlan
from ..units import hours
from ..watcher import CheckpointStore, SimObserver
from .app import FlowTriggerApp
from .functions import (
    analyze_virtual_hyperspectral,
    analyze_virtual_spatiotemporal,
    hyperspectral_cost_model,
    spatiotemporal_cost_model,
)
from .stats import Table1Row, table1_row
from .tools import picoprobe_flow

__all__ = ["CampaignResult", "run_campaign", "use_case_by_name"]


def use_case_by_name(name: str) -> UseCaseSpec:
    from .extensions import SPECTRAL_MOVIE_USE_CASE

    try:
        return {
            "hyperspectral": HYPERSPECTRAL_USE_CASE,
            "spatiotemporal": SPATIOTEMPORAL_USE_CASE,
            "spectral-movie": SPECTRAL_MOVIE_USE_CASE,
        }[name]
    except KeyError:
        raise ValueError(f"unknown use case {name!r}") from None


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    use_case: UseCaseSpec
    duration_s: float
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
    #: Which ingest path the campaign ran ("file" | "stream").
    ingest: str = "file"
    #: The :class:`~repro.integrity.IntegrityLedger`, when the campaign
    #: ran with end-to-end verification (always set under chaos
    #: corruption); None otherwise.
    ledger: Any = None
    #: The :class:`~repro.sim.trace.EventTraceRecorder` of a
    #: ``trace=True`` campaign; None otherwise.
    trace: Any = None

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
        return table1_row(
            self.use_case.name,
            self.use_case.period_s,
            self.use_case.file_size_bytes,
            self.completed_runs,
        )


def run_campaign(
    use_case: "UseCaseSpec | str",
    duration_s: float = hours(1),
    seed: int = 0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    fault_plan: FaultPlan = NO_FAULTS,
    copier_mode: str = "gated",
    checkpoint: Optional[CheckpointStore] = None,
    compression: "object | None" = None,
    sanitize: bool = False,
    tiebreak: str = "fifo",
    obs: bool = False,
    chaos: ChaosPlan = NO_CHAOS,
    trace: bool = False,
    ingest: str = "file",
    integrity: Optional[bool] = None,
) -> CampaignResult:
    """Run one use case for ``duration_s`` simulated seconds.

    ``ingest`` selects the data path per flow: ``"file"`` (default) is
    the paper's watcher → transfer → polled-flow pipeline; ``"stream"``
    sends chunked acquisitions straight from the instrument host to the
    compute host over :mod:`repro.stream`, starting the analysis on
    partial data.  The default path is untouched by the streaming code
    (golden-trace gated).

    ``copier_mode="gated"`` reproduces the paper's pacing (next file at
    ``max(period, previous flow completion)`` — see DESIGN.md);
    ``"periodic"`` emits strictly every period, which overlaps flows and
    is used by the contention ablation.  Passing a
    :class:`~repro.core.extensions.CompressionSpec` as ``compression``
    inserts a compress-before-transfer state (future-work item 2).
    ``sanitize``/``tiebreak`` configure the kernel's schedule-race
    sanitizer (see :mod:`repro.core.sanitize`): with ``sanitize=True``
    the returned result's ``testbed.env.sanitizer`` holds any detected
    same-tick ordering hazards.  ``obs=True`` attaches an
    :class:`~repro.obs.Observability` bundle (span tracer + metrics
    registry) to the testbed; find it at ``result.testbed.obs``.

    ``chaos`` takes a :class:`~repro.chaos.ChaosPlan`: when the plan is
    enabled, the testbed is built with the plan's retry policies and
    transfer faults, and a :class:`~repro.chaos.ChaosController` is
    armed before the clock starts (find it at ``result.chaos``).  The
    default :data:`~repro.chaos.NO_CHAOS` builds nothing and leaves the
    campaign bit-identical to a chaos-unaware one.

    ``trace=True`` attaches an
    :class:`~repro.sim.trace.EventTraceRecorder` before the clock starts
    (find it at ``result.trace``) — the step-level event trace behind
    the golden-trace bit-identity suite.

    ``integrity`` arms the end-to-end verification layer: an
    :class:`~repro.integrity.IntegrityLedger` threaded through the data
    plane (per-chunk stream digests with NAK/retransmit, transfer
    source re-verification, verify-on-read before analysis, and the
    digest-chain gate on search publication).  The default ``None``
    enables it exactly when the chaos plan injects data corruption —
    corruption without verification would be silent, so forcing
    ``integrity=False`` under a corrupting plan raises ``ValueError``.
    Clean campaigns default to ``integrity=None`` → off, keeping the
    golden traces bit-identical.
    """
    from .extensions import (
        CompressionSpec,
        LocalCompressProvider,
        analyze_virtual_spectral_movie,
        compressed_picoprobe_flow,
        spectral_movie_cost_model,
    )

    if ingest not in ("file", "stream"):
        raise ValueError(f"unknown ingest mode {ingest!r}")
    if isinstance(use_case, str):
        use_case = use_case_by_name(use_case)
    env = Environment(sanitize=sanitize, tiebreak=tiebreak)
    recorder = None
    if trace:
        from ..sim.trace import EventTraceRecorder

        recorder = EventTraceRecorder(env)
    chaos_on = chaos.enabled
    corruption_on = (
        chaos_on and chaos.corruption is not None and chaos.corruption.enabled
    )
    if integrity is None:
        integrity = corruption_on
    if corruption_on and not integrity:
        raise ValueError(
            "the chaos plan injects data corruption; running it without "
            "the integrity ledger (integrity=False) would make every "
            "fault silent"
        )
    if chaos_on and chaos.transfer_faults is not NO_FAULTS:
        fault_plan = chaos.transfer_faults
    tb = build_testbed(
        env=env,
        seed=seed,
        calibration=calibration,
        fault_plan=fault_plan,
        obs=Observability(env) if obs else None,
        retry_policies=chaos.policy_map() if chaos_on else None,
    )
    ledger = None
    if integrity:
        from ..integrity import IntegrityLedger

        ledger = IntegrityLedger(
            env, tracer=tb.obs.tracer, metrics=tb.obs.metrics
        )
        tb.transfer.ledger = ledger

    if use_case.signal_type == "hyperspectral":
        fn, cost = analyze_virtual_hyperspectral, hyperspectral_cost_model(
            calibration, tb.rngs
        )
    elif use_case.signal_type == "spatiotemporal":
        fn, cost = analyze_virtual_spatiotemporal, spatiotemporal_cost_model(
            calibration, tb.rngs
        )
    elif use_case.signal_type == "spectral-movie":
        fn, cost = analyze_virtual_spectral_movie, spectral_movie_cost_model(
            calibration, tb.rngs
        )
    else:
        raise ValueError(f"unknown signal type {use_case.signal_type!r}")
    if ledger is not None and ingest == "file":
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
    function_id = tb.compute.register_function(fn, cost, name=f"{use_case.name}-analysis")

    definition: Optional[FlowDefinition] = None
    publisher = None
    if ingest == "stream":
        from ..stream import (
            StreamIngestActionProvider,
            StreamIngestApp,
            StreamPublisher,
            StreamReceiver,
        )

        if compression is not None:
            raise ValueError(
                "compression is a file-mode flow state; streaming ingest "
                "sends raw chunks"
            )
        receiver = StreamReceiver(
            env,
            host="polaris-mom",
            ingest_bytes_per_s=calibration.checksum_bytes_per_s,
            tracer=tb.obs.tracer,
            metrics=tb.obs.metrics,
        )
        publisher = StreamPublisher(
            env,
            tb.fabric,
            receiver,
            src_host="picoprobe-user-machine",
            rngs=tb.rngs,
            efficiency=calibration.endpoint_efficiency,
            tracer=tb.obs.tracer,
            metrics=tb.obs.metrics,
        )
        if ledger is not None:
            receiver.ledger = ledger
            # Wire digests come from the payload as it is at send time,
            # so at-rest rot mid-session surfaces on the wire.
            publisher.source_fs = tb.user_fs
        app = StreamIngestApp(
            tb, publisher, function_id, checkpoint=checkpoint, ledger=ledger
        )
        tb.flows.register_provider(StreamIngestActionProvider(app))
    else:
        if compression is not None:
            if not isinstance(compression, CompressionSpec):
                raise ValueError("compression must be a CompressionSpec")
            tb.flows.register_provider(
                LocalCompressProvider(tb.env, tb.user_fs, tb.rngs)
            )
            definition = compressed_picoprobe_flow(
                tb.gladier, f"picoprobe-{use_case.name}-compressed", compression
            )
        else:
            definition = picoprobe_flow(tb.gladier, f"picoprobe-{use_case.name}")
        app = FlowTriggerApp(
            tb, definition, function_id, checkpoint=checkpoint, ledger=ledger
        )
    if ledger is not None:
        tb.flows.provider("search_ingest").ledger = ledger
    observer = SimObserver(tb.user_fs, prefix="/transfer")
    app.attach(observer)

    controller: Optional[ChaosController] = None
    if chaos_on:
        controller = ChaosController(
            env,
            chaos,
            transfer=tb.transfer,
            compute=tb.compute,
            search=tb.search,
            fabric=tb.fabric,
            flows=tb.flows,
            compute_endpoints=(tb.polaris,),
            rngs=tb.rngs,
            observer=observer,
            stream=publisher,
            filesystems={"picoprobe-user": tb.user_fs, "eagle": tb.eagle_fs},
            tracer=tb.obs.tracer,
            metrics=tb.obs.metrics,
        )
        controller.install()

    copier = FileCopier(
        tb.env, tb.user_fs, use_case, instrument=tb.instrument, mode=copier_mode
    )
    if copier_mode == "gated":
        app.on_complete.append(lambda run: copier.notify_flow_complete())
    tb.env.process(copier.run(until=duration_s))

    tb.env.run(until=duration_s)
    return CampaignResult(
        use_case=use_case,
        duration_s=duration_s,
        testbed=tb,
        app=app,
        copier=copier,
        definition=definition,
        chaos=controller,
        observer=observer,
        ingest=ingest,
        ledger=ledger,
        trace=recorder,
    )
