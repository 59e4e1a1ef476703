"""The chaos controller: schedules a plan's faults onto a live testbed.

``install()`` arms everything the :class:`~repro.chaos.plan.ChaosPlan`
declares, from the built :class:`~repro.testbed.Testbed`:

* the **transfer fault plan** and the flow executor's **retry
  policies**, set on the testbed's transfer and flows services;
* **outage gates** on the transfer/compute/search services (the services
  hold them duck-typed; see :mod:`repro.chaos.gate`), with one DES
  process per window that traces the outage and drains the flow
  executor's degraded-action backlog when the window closes;
* **link degradation** processes driving
  :meth:`~repro.net.NetworkFabric.set_link_health` at each event's edges;
* **node failures** by handing the Polaris endpoint the plan's
  :class:`~repro.chaos.plan.NodeFailureSpec` plus a dedicated
  ``chaos.nodes`` RNG stream;
* **watcher crashes** that stop the directory observer and restart it
  with a checkpoint-deduplicated replay;
* **data corruption** from the plan's
  :class:`~repro.chaos.plan.DataCorruptionSpec`: a
  :class:`~repro.chaos.corruption.ChunkCorruptor` on the stream
  publisher, one bit-rot process per
  :class:`~repro.chaos.plan.BitRotWindow`, and a metadata-mismatch
  subscription on the acquisition filesystem — every hit recorded as a
  ``chaos.corruption`` span so the integrity audit can join injections
  to detections.

A filesystem or link the plan names that the testbed lacks fails
``install()`` with :class:`~repro.errors.ChaosError` before anything is
armed.

Every injection appends to :attr:`injections` — a plain, ordered,
seed-deterministic log that the determinism tests compare across runs.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..errors import ChaosError, ServiceUnavailable
from ..flows.action import ActionState, ActionStatus
from ..testbed import Testbed
from .corruption import ChunkCorruptor
from .gate import ServiceGate
from .plan import (
    BitRotWindow,
    ChaosPlan,
    DataCorruptionSpec,
    LinkDegradation,
    OutageWindow,
    WatcherCrash,
)

__all__ = ["ChaosController"]

#: Outage-window service name -> flow action-provider name.
_SERVICE_PROVIDER = {
    "transfer": "transfer",
    "compute": "compute",
    "search": "search_ingest",
}


class ChaosController:
    """Arms a :class:`ChaosPlan` against a built testbed, its directory
    ``observer`` and its stream publisher (``None`` in file mode)."""

    def __init__(
        self, testbed: Testbed, plan: ChaosPlan, observer: Any, stream: Any = None
    ) -> None:
        self.tb = testbed
        self.env = testbed.env
        self.plan = plan
        self.observer = observer
        self.stream = stream
        #: Name -> :class:`~repro.storage.VirtualFS`, the targets the
        #: plan's bit-rot windows and metadata mismatches may hit.
        self.filesystems = {fs.name: fs for fs in (testbed.user_fs, testbed.eagle_fs)}
        self.tracer = testbed.obs.tracer
        # ``chaos.*`` instruments are fetched where they fire, so a plan
        # that never injects leaves none in the export.
        self._metrics = testbed.obs.metrics
        self.gates: dict[str, ServiceGate] = {}
        #: Ordered, seed-deterministic record of every injection edge.
        self.injections: list[dict[str, Any]] = []
        #: Sim-time from backlog enqueue to successful catch-up.
        self.recovery_latencies: list[float] = []

    def _log(self, kind: str, **detail: Any) -> None:
        self.injections.append({"t": self.env.now, "kind": kind, **detail})

    def record_corruption(self, kind: str, path: str, **detail: Any) -> None:
        """One corruption injection: log it, count it, and emit the
        ``chaos.corruption`` span the integrity audit joins against."""
        self._log(kind, path=path, **detail)
        self._metrics.counter("chaos.corruptions").inc()
        span = self.tracer.start("chaos.corruption")
        try:
            span.set("kind", kind).set("path", path)
            for key in ("fs", "session_id", "seq"):
                if key in detail:
                    span.set(key, detail[key])
        finally:
            span.finish()

    # -- arming ----------------------------------------------------------
    def _check_targets(self) -> None:
        """Raise :class:`ChaosError` naming every filesystem or link the
        plan targets that the testbed lacks, before anything is armed."""
        problems = []
        spec = self.plan.corruption
        if spec is not None:
            wanted = {w.fs for w in spec.bitrot}
            if spec.meta_mismatch_prob > 0:
                wanted.add(spec.meta_mismatch_fs)
            missing = sorted(wanted - self.filesystems.keys())
            if missing:
                problems.append(
                    f"unknown filesystem(s) {missing} "
                    f"(testbed has {sorted(self.filesystems)})"
                )
        links = sorted("--".join(ln.key) for ln in self.tb.fabric.topology.links())
        missing = sorted(
            {"--".join(sorted((d.a, d.b))) for d in self.plan.degradations} - set(links)
        )
        if missing:
            problems.append(f"unknown link(s) {missing} (testbed has {links})")
        if problems:
            raise ChaosError("chaos plan names " + "; ".join(problems))

    def install(self) -> None:
        """Arm the whole plan: the transfer fault plan, the flow retry
        policies, the outage gates and one process per scheduled fault."""
        self._check_targets()
        tb, plan = self.tb, self.plan
        tb.transfer.fault_plan = plan.transfer_faults
        tb.flows.retry_policies = dict(plan.retry_policies)
        by_service: dict[str, list[OutageWindow]] = {}
        for w in plan.outages:
            by_service.setdefault(w.service, []).append(w)
        for name, windows in sorted(by_service.items()):
            gate = ServiceGate(name, windows, plan.connect_timeout_s)
            getattr(tb, name).gate = gate  # tb.transfer / compute / search
            self.gates[name] = gate
            for w in gate.windows:
                self.env.process(self._outage_process(w))
        if self.stream is not None and "transfer" in self.gates:
            # The streaming control plane rides the same data-movement
            # service: a transfer outage also rejects stream handshakes.
            self.stream.gate = self.gates["transfer"]
        for d in plan.degradations:
            self.env.process(self._degradation_process(d))
        if plan.node_failures is not None and plan.node_failures.prob > 0:
            tb.polaris.node_chaos = plan.node_failures
            tb.polaris.chaos_rng = tb.rngs.stream("chaos.nodes")
        for c in plan.watcher_crashes:
            self.env.process(self._watcher_process(c))
        spec = plan.corruption
        if spec is not None and spec.enabled:
            if self.stream is not None and spec.chunk_faults:
                self.stream.corruptor = ChunkCorruptor(
                    spec, tb.rngs.stream("chaos.corruption"), self
                )
            for w in spec.bitrot:
                self.env.process(self._bitrot_window(w, self.filesystems[w.fs]))
            if spec.meta_mismatch_prob > 0:
                self._arm_meta_mismatch(
                    spec, self.filesystems[spec.meta_mismatch_fs]
                )

    # -- fault processes --------------------------------------------------
    def _outage_process(self, w: OutageWindow) -> Generator:
        if w.start_s > self.env.now:
            yield self.env.timeout(w.start_s - self.env.now)
        span = (
            self.tracer.start("chaos.outage")
            .set("service", w.service)
            .set("until", w.end_s)
        )
        try:
            self._log("outage_start", service=w.service, until=w.end_s)
            self._metrics.counter("chaos.outages").inc()
            yield self.env.timeout(w.duration_s)
            rejections = self.gates[w.service].rejections
            span.set("rejections", rejections)
            self._log("outage_end", service=w.service, rejections=rejections)
        finally:
            span.finish()
        # Service is back: catch up the non-critical work that degraded
        # while it was away.
        yield from self._drain_backlog(_SERVICE_PROVIDER[w.service])

    def _degradation_process(self, d: LinkDegradation) -> Generator:
        if d.start_s > self.env.now:
            yield self.env.timeout(d.start_s - self.env.now)
        span = (
            self.tracer.start("chaos.degradation")
            .set("link", f"{d.a}--{d.b}")
            .set("scale", d.scale)
        )
        try:
            self._log("link_degraded", a=d.a, b=d.b, scale=d.scale)
            self._metrics.counter("chaos.degradations").inc()
            self.tb.fabric.set_link_health(d.a, d.b, d.scale)
            yield self.env.timeout(d.duration_s)
            self.tb.fabric.set_link_health(d.a, d.b, 1.0)
            self._log("link_restored", a=d.a, b=d.b)
        finally:
            span.finish()

    def _watcher_process(self, c: WatcherCrash) -> Generator:
        if c.at_s > self.env.now:
            yield self.env.timeout(c.at_s - self.env.now)
        if not self.observer.running:
            return  # already crashed by an overlapping event
        span = self.tracer.start("chaos.watcher_crash").set("down_s", c.down_s)
        try:
            self._log("watcher_crash", down_s=c.down_s)
            self._metrics.counter("chaos.watcher_crashes").inc()
            self.observer.stop()
            yield self.env.timeout(c.down_s)
            replayed = self.observer.restart(replay=True)
            self._log("watcher_restart", replayed=replayed)
            span.set("replayed", replayed)
        finally:
            span.finish()

    # -- data corruption ---------------------------------------------------
    def _bitrot_window(self, w: BitRotWindow, fs: Any) -> Generator:
        """Arm at-rest rot for files created on ``fs`` inside the window.

        Each qualifying creation gets one seeded draw; hits rot
        ``delay_s`` after creation (the file has usually been observed,
        maybe even streamed, by then — the interesting case)."""
        rng = self.tb.rngs.stream("chaos.bitrot")
        if w.start_s > self.env.now:
            yield self.env.timeout(w.start_s - self.env.now)

        def on_create(f: Any) -> None:
            if f.kind != "emd":
                return
            if float(rng.uniform()) < w.prob:
                self.env.process(self._rot_process(fs, f.path, w.delay_s))

        unsubscribe = fs.subscribe(on_create)
        self._log("bitrot_window_start", fs=fs.name, until=w.end_s)
        try:
            yield self.env.timeout(w.duration_s)
        finally:
            unsubscribe()
            self._log("bitrot_window_end", fs=fs.name)

    def _rot_process(self, fs: Any, path: str, delay_s: float) -> Generator:
        if delay_s > 0:
            yield self.env.timeout(delay_s)
        if not fs.exists(path):
            return  # consumed and gone before the rot landed
        fs.corrupt(path, salt=f"bitrot:{path}")
        self.record_corruption("bitrot", path, fs=fs.name)

    def _arm_meta_mismatch(self, spec: DataCorruptionSpec, fs: Any) -> None:
        """Corrupt-at-birth: with ``meta_mismatch_prob`` a freshly
        created acquisition's payload never matched its declared
        checksum.  Stays armed for the whole campaign."""
        rng = self.tb.rngs.stream("chaos.metadata")

        def on_create(f: Any) -> None:
            if f.kind != "emd" or f.payload is not None:
                return
            if float(rng.uniform()) < spec.meta_mismatch_prob:
                fs.corrupt(f.path, salt=f"meta:{f.path}")
                self.record_corruption("meta_mismatch", f.path, fs=fs.name)

        fs.subscribe(on_create)

    # -- degraded-work catch-up ------------------------------------------
    def _drain_backlog(self, provider_name: str) -> Generator:
        """Re-drive backlogged actions for ``provider_name`` to terminal
        state, recording each entry's recovery latency.  A catch-up whose
        submission fails, or whose poll a later outage rejects, ends
        FAILED with the error on its entry, and the drain moves on."""
        flows = self.tb.flows
        pending = [
            e
            for e in flows.backlog
            if e.provider == provider_name and not e.recovered and e.error is None
        ]
        for entry in pending:
            span = (
                self.tracer.start("chaos.catch_up")
                .set("run_id", entry.run_id)
                .set("state", entry.state)
            )
            try:
                provider = flows.provider(entry.provider)
                try:
                    action_id = provider.run(dict(entry.body))
                except Exception as exc:
                    entry.error = f"{type(exc).__name__}: {exc}"
                    span.set("status", "FAILED")
                    continue
                status = None
                for interval in flows.backoff.intervals():
                    yield self.env.timeout(interval + flows.poll_latency_s)
                    try:
                        status = provider.status(action_id)
                    except ServiceUnavailable as exc:
                        status = ActionStatus(
                            ActionState.FAILED, error=f"{type(exc).__name__}: {exc}"
                        )
                    if status.state.terminal:
                        break
                if status is not None and status.state is ActionState.SUCCEEDED:
                    entry.caught_up_at = self.env.now
                    latency = entry.recovery_latency_s or 0.0
                    self.recovery_latencies.append(latency)
                    self._metrics.histogram("chaos.recovery_latency_s").observe(latency)
                    span.set("status", "SUCCEEDED").set("latency_s", latency)
                else:
                    entry.error = (
                        status.error if status else None
                    ) or "catch-up failed"
                    span.set("status", "FAILED")
            finally:
                # The kernel can throw into the generator; the span must
                # end on that edge too (finish() is idempotent).
                span.finish()

    def drain_remaining(self) -> Generator:
        """Catch up every still-pending backlog entry (end-of-campaign
        sweep for entries whose outage window outlived the run)."""
        for provider_name in sorted({e.provider for e in self.tb.flows.backlog}):
            yield from self._drain_backlog(provider_name)

    # -- reporting --------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Seed-deterministic summary of what chaos did and what recovered."""
        flows = self.tb.flows
        retries = 0
        degraded_runs = 0
        for run in flows.runs:
            if run.degraded:
                degraded_runs += 1
            for step in run.steps:
                retries += max(0, step.attempts - 1)
        recovered = sum(e.recovered for e in flows.backlog)
        latencies = sorted(self.recovery_latencies)
        percentiles: dict[str, float] = {}
        if latencies:
            arr = np.asarray(latencies)
            percentiles = {
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "max": float(arr.max()),
            }
        return {
            "injections": list(self.injections),
            "gate_rejections": {
                name: gate.rejections for name, gate in sorted(self.gates.items())
            },
            "node_failures": self.tb.polaris.node_failures,
            "flow_retries": retries,
            "degraded_runs": degraded_runs,
            "dead_letters": [d.summary() for d in flows.dead_letters],
            "backlog_total": len(flows.backlog),
            "backlog_recovered": recovered,
            "backlog_pending": len(flows.backlog) - recovered,
            "recovery_latency_s": percentiles,
        }
