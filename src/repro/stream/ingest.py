"""The streaming launch for the flow-trigger application.

:class:`StreamIngestApp` is the shared
:class:`~repro.core.app.TriggerApp` (checkpoint dedup, record subject,
integrity chain, open-chain quarantine, completion callbacks) with the
fast path as its launch: open a publisher session the moment the file
appears, submit the analysis to the compute service as soon as the
first ``threshold_chunks`` chunks have landed (in-flight analysis on
partial data — no staging wait, no polling detection lag), and publish
the result straight to the search index once both the analysis and the
remaining chunks finish.
"""

from __future__ import annotations

from typing import Any

from ..compute import ComputeTaskStatus
from ..core.app import TriggerApp
from ..errors import ServiceUnavailable
from ..storage import VirtualFile
from ..testbed import POLARIS_EP, PORTAL_INDEX, Testbed
from .publisher import StreamPublisher, retry_outages
from .session import StreamSession

__all__ = ["StreamIngestApp"]

#: Attempts at each cloud call (analysis submit, search publish) before
#: an outage fails the session.
CLOUD_ATTEMPTS = 8


class StreamIngestApp(TriggerApp):
    """Stream mode: one publisher session per file, to compute + search."""

    def __init__(
        self,
        testbed: Testbed,
        publisher: StreamPublisher,
        function_id: str,
        **kwargs: Any,
    ) -> None:
        super().__init__(testbed, function_id, **kwargs)
        self.publisher = publisher

    @property
    def sessions(self) -> list[StreamSession]:
        return self.records

    @property
    def published_sessions(self) -> list[StreamSession]:
        return [s for s in self.records if s.status == "PUBLISHED"]

    def _launch(self, vf: VirtualFile, subject: str, descriptor: dict) -> StreamSession:
        # With a ledger, sessions stream with per-chunk verification
        # against the declared digest.
        return self.publisher.start(
            vf.path,
            vf.size_bytes,
            virtual=vf,
            digest=vf.checksum if self.ledger is not None else None,
        )

    def _follow(
        self, session: StreamSession, vf: VirtualFile, subject: str, descriptor: dict
    ):
        tb = self.testbed
        env = tb.env
        # The session root span; the publisher's ``stream.deliver`` span
        # carries the same ``session_id`` attribute (the stitching key,
        # like ``action_id`` on action spans).
        span = (
            tb.obs.tracer.start("stream.session")
            .set("session_id", session.session_id)
            .set("path", vf.path)
            .set("bytes", float(session.total_bytes))
            .set("chunks", session.total_chunks)
        )
        try:
            # 1. Partial data landed: kick off the analysis in flight.
            # A verifying session can instead die early: an unrepairable
            # chunk (source rot, metadata mismatch) fires ``failed``.
            if session.failed is None:
                yield session.threshold
            else:
                yield env.any_of([session.threshold, session.failed])
                if not session.threshold.triggered:
                    return  # quarantined in the finally block
            analyze_span = tb.obs.tracer.start("stream.analyze", span)
            try:
                task_id = yield from retry_outages(
                    env,
                    lambda: tb.compute.submit(
                        tb.token, POLARIS_EP, self.function_id, file=descriptor
                    ),
                    CLOUD_ATTEMPTS,
                )
                session.analysis_started_at = env.now
                # Publication needs the full acquisition on the node and
                # the analysis output — wait for both (or the session's
                # unrepairable-chunk failure, which preempts them).
                ready = env.all_of([tb.compute.wait(task_id), session.delivered])
                if session.failed is None:
                    yield ready
                else:
                    yield env.any_of([ready, session.failed])
                    if not session.delivered.triggered:
                        return  # quarantined in the finally block
                session.analysis_done_at = env.now
            finally:
                analyze_span.finish()
            if self.ledger is not None:
                # Every chunk verified against the declared digest on
                # arrival — attest the facility hop.
                self.ledger.attest(
                    vf.path,
                    "streamed",
                    digest=session.declared_digest,
                    at=env.now,
                    by="receiver",
                )
            task = tb.compute.task_record(task_id)
            if task.status is not ComputeTaskStatus.SUCCESS:
                session.status = "FAILED"
                session.error = (
                    task.outcome.error if task.outcome else "analysis failed"
                )
                return
            content = task.outcome.result
            if self.ledger is not None:
                self.ledger.attest(
                    vf.path,
                    "analyzed",
                    digest=session.declared_digest,
                    at=env.now,
                    by="compute",
                )

            # 2. Publish straight to the portal index — gated on the
            # digest chain closing.
            if self.ledger is not None:
                ok, reason = self.ledger.check_publishable(subject)
                if not ok:
                    session.status = "QUARANTINED"
                    session.error = f"IntegrityError: {reason}"
                    return
            publish_span = tb.obs.tracer.start("stream.publish", span)
            try:
                yield from retry_outages(
                    env,
                    lambda: tb.search.ingest(
                        tb.token,
                        index=PORTAL_INDEX,
                        subject=subject,
                        content=content,
                        visible_to=self.visible_to,
                    ),
                    CLOUD_ATTEMPTS,
                )
            finally:
                publish_span.finish()
            session.published_at = env.now
            session.status = "PUBLISHED"
        except ServiceUnavailable as exc:
            session.status = "FAILED"
            session.error = f"{type(exc).__name__}: {exc}"
        finally:
            # Quarantine before the span ends, so the session span
            # carries the final status.
            try:
                if session.status != "PUBLISHED" and self._quarantine_open(
                    vf.path,
                    session.error
                    or f"stream session ended {session.status} with open chain",
                ):
                    session.status = "QUARANTINED"
                if self.ledger is not None:
                    span.set("naks", session.naks).set(
                        "retransmits", session.retransmits
                    )
                span.set("status", session.status).set(
                    "renegotiations", session.renegotiations
                ).set("duplicates", session.duplicates)
            finally:
                span.finish()
            self._notify(session)
