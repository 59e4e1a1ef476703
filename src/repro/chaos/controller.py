"""The chaos controller: schedules a plan's faults onto a live testbed.

``install()`` arms everything the :class:`~repro.chaos.plan.ChaosPlan`
declares:

* **outage gates** on the transfer/compute/search services (the services
  hold them duck-typed; see :mod:`repro.chaos.gate`), with one DES
  process per window that traces the outage and drains the flow
  executor's degraded-action backlog when the window closes;
* **link degradation** processes driving
  :meth:`~repro.net.NetworkFabric.set_link_health` at each event's edges;
* **node failures** by handing the compute endpoint the plan's
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

from ..errors import ChaosError
from ..flows.action import ActionState
from ..obs import NULL_OBS
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
    """Arms a :class:`ChaosPlan` against testbed components.

    All parameters are duck-typed handles from the testbed; pass ``None``
    for any subsystem a unit test does not exercise.
    """

    def __init__(
        self,
        env: Any,
        plan: ChaosPlan,
        *,
        transfer: Any = None,
        compute: Any = None,
        search: Any = None,
        fabric: Any = None,
        flows: Any = None,
        compute_endpoints: tuple = (),
        rngs: Any = None,
        observer: Any = None,
        stream: Any = None,
        filesystems: Any = None,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.plan = plan
        self.transfer = transfer
        self.compute = compute
        self.search = search
        self.fabric = fabric
        self.flows = flows
        self.compute_endpoints = tuple(compute_endpoints)
        self.rngs = rngs
        self.observer = observer
        self.stream = stream
        #: Name -> :class:`~repro.storage.VirtualFS`, the targets the
        #: plan's bit-rot windows and metadata mismatches may hit.
        self.filesystems: dict[str, Any] = dict(filesystems or {})
        self.tracer = obs.tracer
        # ``chaos.*`` instruments are fetched where they fire, so a plan
        # that never injects leaves none in the export.
        self._metrics = obs.metrics
        self.gates: dict[str, ServiceGate] = {}
        #: Ordered, seed-deterministic record of every injection edge.
        self.injections: list[dict[str, Any]] = []
        #: Sim-time from backlog enqueue to successful catch-up.
        self.recovery_latencies: list[float] = []
        self.installed = False

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
        if self.fabric is not None:
            links = sorted("--".join(ln.key) for ln in self.fabric.topology.links())
            missing = sorted(
                {"--".join(sorted((d.a, d.b))) for d in self.plan.degradations}
                - set(links)
            )
            if missing:
                problems.append(f"unknown link(s) {missing} (testbed has {links})")
        if problems:
            raise ChaosError("chaos plan names " + "; ".join(problems))

    def install(self) -> None:
        """Install gates and start one process per scheduled fault."""
        if self.installed:
            return
        self._check_targets()
        self.installed = True
        services = {
            "transfer": self.transfer,
            "compute": self.compute,
            "search": self.search,
        }
        by_service: dict[str, list[OutageWindow]] = {}
        for w in self.plan.outages:
            by_service.setdefault(w.service, []).append(w)
        for name, windows in sorted(by_service.items()):
            svc = services.get(name)
            if svc is None:
                continue
            gate = ServiceGate(name, windows, self.plan.connect_timeout_s)
            svc.gate = gate
            self.gates[name] = gate
            for w in gate.windows:
                self.env.process(self._outage_process(w))
        if self.stream is not None and "transfer" in self.gates:
            # The streaming control plane rides the same data-movement
            # service: a transfer outage also rejects stream handshakes.
            self.stream.gate = self.gates["transfer"]
        for d in self.plan.degradations:
            if self.fabric is not None:
                self.env.process(self._degradation_process(d))
        if self.plan.node_failures is not None and self.plan.node_failures.prob > 0:
            for ep in self.compute_endpoints:
                ep.node_chaos = self.plan.node_failures
                ep.chaos_rng = self.rngs.stream("chaos.nodes")
        for c in self.plan.watcher_crashes:
            if self.observer is not None:
                self.env.process(self._watcher_process(c))
        spec = self.plan.corruption
        if spec is not None and spec.enabled and self.rngs is not None:
            if self.stream is not None and spec.chunk_faults:
                self.stream.corruptor = ChunkCorruptor(
                    spec, self.rngs.stream("chaos.corruption"), self
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
            gate = self.gates.get(w.service)
            span.set("rejections", gate.rejections if gate else 0)
            self._log(
                "outage_end",
                service=w.service,
                rejections=gate.rejections if gate else 0,
            )
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
            self.fabric.set_link_health(d.a, d.b, d.scale)
            yield self.env.timeout(d.duration_s)
            self.fabric.set_link_health(d.a, d.b, 1.0)
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
        rng = self.rngs.stream("chaos.bitrot")
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
        rng = self.rngs.stream("chaos.metadata")

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
        state, recording each entry's recovery latency."""
        if self.flows is None:
            return
        pending = [
            e
            for e in self.flows.backlog
            if e.provider == provider_name and not e.recovered and e.error is None
        ]
        for entry in pending:
            span = (
                self.tracer.start("chaos.catch_up")
                .set("run_id", entry.run_id)
                .set("state", entry.state)
            )
            try:
                provider = self.flows.provider(entry.provider)
                try:
                    action_id = provider.run(dict(entry.body))
                except Exception as exc:
                    entry.error = f"{type(exc).__name__}: {exc}"
                    span.set("status", "FAILED")
                    continue
                status = None
                for interval in self.flows.backoff.intervals():
                    yield self.env.timeout(interval + self.flows.poll_latency_s)
                    status = provider.status(action_id)
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
                # `provider.status` can raise ServiceUnavailable mid-poll
                # and the kernel can throw into the generator; the span
                # must end on those edges too (finish() is idempotent).
                span.finish()

    def drain_remaining(self) -> Generator:
        """Catch up every still-pending backlog entry (end-of-campaign
        sweep for entries whose outage window outlived the run)."""
        for provider_name in sorted({e.provider for e in (self.flows.backlog if self.flows else [])}):
            yield from self._drain_backlog(provider_name)

    # -- reporting --------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Seed-deterministic summary of what chaos did and what recovered."""
        flows = self.flows
        retries = 0
        degraded_runs = 0
        if flows is not None:
            for run in flows.runs:
                if run.degraded:
                    degraded_runs += 1
                for step in run.steps:
                    retries += max(0, step.attempts - 1)
        backlog = list(flows.backlog) if flows is not None else []
        recovered = [e for e in backlog if e.recovered]
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
            "node_failures": sum(
                getattr(ep, "node_failures", 0) for ep in self.compute_endpoints
            ),
            "flow_retries": retries,
            "degraded_runs": degraded_runs,
            "dead_letters": [
                d.summary() for d in (flows.dead_letters if flows is not None else [])
            ],
            "backlog_total": len(backlog),
            "backlog_recovered": len(recovered),
            "backlog_pending": len(backlog) - len(recovered),
            "recovery_latency_s": percentiles,
        }
