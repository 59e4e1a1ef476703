"""The transfer service: a cloud-hosted, polled, authenticated mover.

Mirrors the Globus Transfer model the paper relies on (Sec. 2.2.1):

* clients **submit** a task (authenticated, ACL-checked) and receive a
  task id;
* the service drives the data movement through endpoint agents — here,
  streams on the :class:`~repro.net.NetworkFabric` — with per-file
  checksum verification and automatic retry;
* clients **poll** task status by id (which is exactly what the flow
  executor's exponential-backoff loop does).

Timing model: a submission round-trip latency (cloud API), per-endpoint
startup handshakes, fair-share network time scaled by endpoint
efficiency, and a checksum-verification time proportional to file size.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..auth import ScopeAuthorizer, Token
from ..auth.identity import TRANSFER_SCOPE, AuthClient
from ..errors import EndpointError, TransferError
from ..net import NetworkFabric
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment
from .endpoint import TransferEndpoint
from .faults import NO_FAULTS, FaultPlan
from .task import TaskStatus, TransferTask

__all__ = ["TransferService"]


class TransferService:
    """Authenticated, fault-tolerant file mover over the network fabric.

    Parameters
    ----------
    env, fabric:
        Simulation environment and the shared network.
    auth:
        Identity provider used to validate tokens.
    rngs:
        Random streams for latency jitter and fault draws.
    api_latency_s:
        Median round-trip of one service API call (submit or poll).
    checksum_bytes_per_s:
        Verification throughput used to charge checksum time.
    fault_plan:
        Fault-injection plan applied to every attempt.
    """

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        auth: AuthClient,
        rngs: Optional[RngRegistry] = None,
        api_latency_s: float = 0.25,
        latency_sigma: float = 0.3,
        throughput_sigma: float = 0.0,
        checksum_bytes_per_s: float = 400e6,
        fault_plan: FaultPlan = NO_FAULTS,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.authorizer = ScopeAuthorizer(auth, TRANSFER_SCOPE)
        self.rngs = rngs or RngRegistry(seed=0)
        self.api_latency_s = float(api_latency_s)
        self.latency_sigma = float(latency_sigma)
        self.throughput_sigma = float(throughput_sigma)
        self.checksum_bytes_per_s = float(checksum_bytes_per_s)
        self.fault_plan = fault_plan
        #: Chaos hook: a duck-typed outage gate (see
        #: :class:`repro.chaos.ServiceGate`).  ``None`` means always up.
        self.gate: Any = None
        #: Integrity hook: a duck-typed
        #: :class:`~repro.integrity.IntegrityLedger`.  When set, every
        #: successful transfer re-verifies the at-rest payload digest
        #: (failing fast on bit rot — the recomputed checksum can never
        #: match) and attests the ``transferred`` chain hop.
        self.ledger: Any = None
        self.tracer = obs.tracer
        m = obs.metrics
        self._m_submitted = m.counter("transfer.tasks_submitted")
        self._m_succeeded = m.counter("transfer.tasks_succeeded")
        self._m_failed = m.counter("transfer.tasks_failed")
        self._m_retries = m.counter("transfer.retries")
        self._m_bytes = m.counter("transfer.bytes_moved")
        self._m_duration = m.histogram("transfer.task_duration_s")
        self._endpoints: dict[str, TransferEndpoint] = {}
        self._tasks: dict[str, TransferTask] = {}
        self._ids = itertools.count(1)

    # -- endpoint registry ---------------------------------------------------
    def register_endpoint(self, endpoint: TransferEndpoint) -> None:
        if endpoint.name in self._endpoints:
            raise EndpointError(f"endpoint already registered: {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> TransferEndpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise EndpointError(f"unknown endpoint: {name!r}") from None

    # -- client API -----------------------------------------------------------
    def check_available(self) -> None:
        """Raise :class:`~repro.errors.ServiceUnavailable` when a chaos
        gate has the cloud API inside an outage window.  Only the control
        plane is gated — data already moving on the fabric keeps moving."""
        if self.gate is not None:
            self.gate.check(self.env.now)

    def submit(
        self,
        token: Token,
        source_endpoint: str,
        source_path: str,
        dest_endpoint: str,
        dest_path: str,
    ) -> str:
        """Submit a transfer; returns the task id immediately.

        Authentication, ACL checks, and source existence are validated at
        submission (as Globus does); the data movement runs
        asynchronously.
        """
        self.check_available()
        identity = self.authorizer.authorize(token, self.env.now)
        src = self.endpoint(source_endpoint)
        dst = self.endpoint(dest_endpoint)
        src.policy.check_read(identity, what=f"endpoint {src.name}")
        dst.policy.check_write(identity, what=f"endpoint {dst.name}")
        source_file = src.vfs.stat(source_path)  # raises if missing

        task = TransferTask(
            task_id=f"xfer-{next(self._ids):06d}",
            owner=identity.username,
            source_endpoint=source_endpoint,
            source_path=source_path,
            dest_endpoint=dest_endpoint,
            dest_path=dest_path,
            nbytes=source_file.size_bytes,
            requested_at=self.env.now,
        )
        self._tasks[task.task_id] = task
        # The task span opens at ``requested_at`` and closes exactly at
        # ``completed_at`` so its duration equals ``task.duration`` — the
        # provider-reported active time the Fig. 4 gate checks against.
        self._m_submitted.inc()
        span = (
            self.tracer.start("transfer.task")
            .set("action_id", task.task_id)
            .set("src", source_endpoint)
            .set("dst", dest_endpoint)
            .set("bytes", float(source_file.size_bytes))
        )
        self.env.process(self._execute(task, src, dst, span))
        return task.task_id

    def task_record(self, task_id: str) -> TransferTask:
        """The task record by id, which the transfer provider polls for
        status."""
        self.check_available()
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TransferError(f"unknown task: {task_id!r}") from None

    # -- execution -----------------------------------------------------------
    def _jitter(self, median: float) -> float:
        rng = self.rngs.stream("transfer.latency")
        return lognormal_from_median(rng, median, self.latency_sigma)

    def _finish(
        self, task: TransferTask, span: Any, error: Optional[str] = None
    ) -> None:
        """End ``task`` now: SUCCEEDED when ``error`` is ``None``, else
        FAILED with it; close its span and record the outcome."""
        task.status = TaskStatus.SUCCEEDED if error is None else TaskStatus.FAILED
        task.completed_at = self.env.now
        task.error = error
        span.set("status", task.status.value).set("attempts", task.attempts).finish()
        (self._m_succeeded if error is None else self._m_failed).inc()
        self._m_duration.observe(task.duration)

    def _execute(
        self,
        task: TransferTask,
        src: TransferEndpoint,
        dst: TransferEndpoint,
        span: Any,
    ) -> Generator:
        if self.ledger is not None:
            span.set("path", task.source_path)
        rng = self.rngs.stream("transfer.faults")
        # Submission processing in the cloud service.
        yield self.env.timeout(self._jitter(self.api_latency_s))
        task.status = TaskStatus.ACTIVE
        task.started_at = self.env.now
        try:
            source_file = src.vfs.stat(task.source_path)
        except EndpointError as exc:
            # The source vanished between submission and execution start
            # (chaos node kill, watcher replay race).  Terminate the task
            # instead of letting the process die with it stuck ACTIVE.
            self._finish(task, span, f"source disappeared before transfer: {exc}")
            return

        while True:
            task.attempts += 1
            attempt_span = self.tracer.start("transfer.attempt", span).set(
                "attempt", task.attempts
            )
            try:
                # Endpoint handshakes (control channel setup on both sides).
                startup = src.startup_latency_s + dst.startup_latency_s
                if startup > 0:
                    yield self.env.timeout(self._jitter(startup))

                fault = self.fault_plan.draw(rng)
                nbytes = source_file.size_bytes
                efficiency = min(
                    src.effective_efficiency(nbytes), dst.effective_efficiency(nbytes)
                )
                # Per-task throughput jitter (disk contention, TCP luck).
                jitter = lognormal_from_median(
                    self.rngs.stream("transfer.throughput"), 1.0, self.throughput_sigma
                )
                efficiency = float(min(1.0, max(1e-6, efficiency * jitter)))

                if fault == "transient":
                    # Channel drops partway: burn a random fraction of the
                    # transfer time, then retry.
                    frac = float(rng.uniform(0.05, 0.9))
                    partial = self.fabric.transfer(
                        src.host, dst.host, source_file.size_bytes * frac, efficiency
                    )
                    yield partial
                    task.faults.append(f"transient fault on attempt {task.attempts}")
                    attempt_span.set("outcome", "transient")
                else:
                    done = self.fabric.transfer(
                        src.host, dst.host, source_file.size_bytes, efficiency
                    )
                    yield done
                    # Checksum verification at the destination.
                    if self.checksum_bytes_per_s > 0 and source_file.size_bytes > 0:
                        cksum_span = self.tracer.start(
                            "transfer.checksum", attempt_span
                        )
                        try:
                            yield self.env.timeout(
                                source_file.size_bytes / self.checksum_bytes_per_s
                            )
                        finally:
                            cksum_span.finish()
                    if fault == "corrupt":
                        task.faults.append(
                            f"checksum mismatch on attempt {task.attempts}"
                        )
                        attempt_span.set("outcome", "corrupt")
                        if self.ledger is not None:
                            self.ledger.detect(
                                "file", "wire", path=task.source_path
                            )
                    else:
                        if self.ledger is not None:
                            # Re-read the source record: at-rest rot may
                            # have landed since submission or a retry.
                            try:
                                source_file = src.vfs.stat(task.source_path)
                            except EndpointError:
                                pass  # keep the submission-time snapshot
                            if not source_file.intact:
                                # The recomputed checksum can never match
                                # the declared one — retrying is pointless.
                                task.faults.append(
                                    f"at-rest digest mismatch on attempt "
                                    f"{task.attempts}"
                                )
                                attempt_span.set("outcome", "integrity")
                                self._finish(
                                    task,
                                    span,
                                    "integrity: source payload digest "
                                    f"{source_file.payload_digest} does not "
                                    f"match declared {source_file.checksum}",
                                )
                                self.ledger.detect(
                                    "file", "at_rest", path=task.source_path
                                )
                                return
                        dst.vfs.copy_in(source_file, task.dest_path, now=self.env.now)
                        if self.ledger is not None:
                            # Heal any wire detection still open for this
                            # path — including one left by an earlier task
                            # the flow's retry policy resubmitted.
                            if self.ledger.is_open("file", "wire", task.source_path):
                                self.ledger.repair(
                                    "file", "wire", path=task.source_path
                                )
                            self.ledger.attest(
                                task.source_path,
                                "transferred",
                                digest=source_file.payload_digest,
                                at=self.env.now,
                                by="transfer",
                            )
                        attempt_span.set("outcome", "succeeded")
                        self._finish(task, span)
                        self._m_bytes.inc(float(source_file.size_bytes))
                        return
            finally:
                attempt_span.finish()

            self._m_retries.inc()
            if task.attempts >= self.fault_plan.max_attempts:
                self._finish(
                    task, span, f"exhausted {task.attempts} attempts: {task.faults[-1]}"
                )
                return
