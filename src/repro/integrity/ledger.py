"""The in-campaign integrity ledger: chains, detections, quarantine.

One :class:`IntegrityLedger` lives per campaign (created by
:func:`repro.core.run_campaign` when corruption faults are armed, or on
``integrity=True``).  Services hold it duck-typed — like the chaos
``gate`` hook — and call:

* :meth:`begin` — the acquisition attestation, when the watcher/app
  first sees a file;
* :meth:`attest` — a later hop re-attesting the digest it verified;
* :meth:`detect` / :meth:`repair` — a verification failure and its
  retransmit-driven recovery (both emit instantaneous spans, the audit
  layer's raw material);
* :meth:`check_publishable` — the search-publish gate: a subject whose
  chain does not close is quarantined and the publish refused;
* :meth:`verify_read` — the compute-side verify-on-read, raising
  :class:`~repro.errors.IntegrityError` on mismatch;
* :meth:`scrub` — the end-of-campaign at-rest sweep that dead-letters
  rot which landed after its record was last consumed.

Every method is pure bookkeeping on the clean path: no spans, metrics,
or RNG draws happen unless corruption is actually observed, so a
ledger-enabled campaign with zero injected faults emits zero extra
trace material beyond its publish receipts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..errors import IntegrityError
from ..obs import NULL_OBS
from .chain import DigestChain

__all__ = ["IntegrityLedger", "QuarantineRecord"]


@dataclass
class QuarantineRecord:
    """A dead-lettered record: its chain travels with it, it is never
    published."""

    path: str
    subject: str
    reason: str
    at: float
    chain: DigestChain

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "subject": self.subject,
            "reason": self.reason,
            "at": self.at,
            "chain": self.chain.to_dict(),
        }


@dataclass
class _Detection:
    mode: str
    kind: str
    path: str
    at: float
    seq: Optional[int] = None
    session_id: Optional[str] = None


class IntegrityLedger:
    """Campaign-wide digest chains plus the quarantine dead-letter."""

    def __init__(self, env: Any, obs: Any = NULL_OBS) -> None:
        self.env = env
        self.tracer = obs.tracer
        self._metrics = obs.metrics
        self.chains: dict[str, DigestChain] = {}
        self._by_subject: dict[str, str] = {}
        self.detections: list[_Detection] = []
        self.repairs: list[_Detection] = []
        self.quarantined: list[QuarantineRecord] = []
        self._quarantined_paths: set[str] = set()
        self.published: list[str] = []

    # -- chain bookkeeping (clean path: no spans, no metrics) --------------
    def begin(self, path: str, declared: str, subject: str, at: float) -> DigestChain:
        """Open (or return) the chain for ``path`` and attest
        ``acquired`` with the declared checksum."""
        chain = self.chains.get(path)
        if chain is None:
            chain = DigestChain(path=path, subject=subject, declared=declared)
            self.chains[path] = chain
            self._by_subject[subject] = path
            chain.attest("acquired", declared, at, by="watcher")
        return chain

    def chain(self, path: str) -> Optional[DigestChain]:
        return self.chains.get(path)

    def chain_for_subject(self, subject: str) -> Optional[DigestChain]:
        path = self._by_subject.get(subject)
        return None if path is None else self.chains.get(path)

    def attest(self, path: str, stage: str, digest: str, at: float, by: str) -> None:
        """Attest a hop for ``path``; a no-op when no chain is open
        (manually driven sessions outside the watched prefix)."""
        chain = self.chains.get(path)
        if chain is not None:
            chain.attest(stage, digest, at, by=by)

    # -- verification events (corruption path: spans + metrics) ------------
    def detect(
        self,
        mode: str,
        kind: str,
        path: str,
        seq: Optional[int] = None,
        session_id: Optional[str] = None,
    ) -> None:
        """Record a digest-verification failure (NAK, at-rest mismatch,
        verify-on-read, scrub hit)."""
        d = _Detection(
            mode=mode, kind=kind, path=path, at=self.env.now,
            seq=seq, session_id=session_id,
        )
        self.detections.append(d)
        self._metrics.counter("integrity.detections").inc()
        span = self.tracer.start("integrity.detect")
        try:
            span.set("mode", mode).set("kind", kind).set("path", path)
            if seq is not None:
                span.set("seq", seq)
            if session_id is not None:
                span.set("session_id", session_id)
        finally:
            span.finish()

    def repair(
        self,
        mode: str,
        kind: str,
        path: str,
        seq: Optional[int] = None,
        session_id: Optional[str] = None,
    ) -> None:
        """Record that a previously detected corruption was healed
        (a NAK'd chunk re-sent clean, a corrupt transfer retried)."""
        r = _Detection(
            mode=mode, kind=kind, path=path, at=self.env.now,
            seq=seq, session_id=session_id,
        )
        self.repairs.append(r)
        self._metrics.counter("integrity.repairs").inc()
        span = self.tracer.start("integrity.repair")
        try:
            span.set("mode", mode).set("kind", kind).set("path", path)
            if seq is not None:
                span.set("seq", seq)
            if session_id is not None:
                span.set("session_id", session_id)
        finally:
            span.finish()

    def is_open(self, mode: str, kind: str, path: str) -> bool:
        """Whether ``path`` has a ``mode``/``kind`` detection that no
        later repair healed (the audit's resolution rule)."""

        def last(records: list[_Detection]) -> float:
            return max(
                (r.at for r in records
                 if r.path == path and r.mode == mode and r.kind == kind),
                default=-1.0,
            )

        return last(self.repairs) < last(self.detections)

    # -- quarantine ---------------------------------------------------------
    def quarantine(self, path: str, reason: str) -> Optional[QuarantineRecord]:
        """Dead-letter ``path`` with its chain.  Idempotent: a record
        already quarantined is not re-recorded (first reason wins)."""
        if path in self._quarantined_paths:
            return None
        chain = self.chains.get(path)
        if chain is None:
            chain = DigestChain(path=path, subject=path, declared="")
        record = QuarantineRecord(
            path=path,
            subject=chain.subject,
            reason=reason,
            at=self.env.now,
            chain=chain,
        )
        self._quarantined_paths.add(path)
        self.quarantined.append(record)
        self._metrics.counter("integrity.quarantined").inc()
        span = self.tracer.start("integrity.quarantine")
        try:
            span.set("path", path).set("subject", record.subject).set(
                "reason", reason
            )
        finally:
            span.finish()
        return record

    def is_quarantined(self, path: str) -> bool:
        return path in self._quarantined_paths

    # -- the publish gate ---------------------------------------------------
    def check_publishable(self, subject: str) -> tuple[bool, str]:
        """May ``subject`` be published to search?

        Unknown subjects (no chain opened — out-of-band ingests) pass.
        A known subject with an open chain is quarantined on the spot
        and refused; the caller must record the publish as FAILED and
        never index the document.  On success an ``integrity.publish``
        receipt span is emitted — the audit layer's proof that whatever
        reached the index had a closed chain at publish time.
        """
        path = self._by_subject.get(subject)
        if path is None:
            return True, ""
        chain = self.chains[path]
        reason = chain.why_open()
        if reason is not None or path in self._quarantined_paths:
            why = reason or "record already quarantined"
            self.quarantine(path, reason=f"publish blocked: {why}")
            return False, f"digest chain for {subject!r} does not close: {why}"
        self.published.append(path)
        span = self.tracer.start("integrity.publish")
        try:
            span.set("path", path).set("subject", subject)
        finally:
            span.finish()
        return True, ""

    # -- verify-on-read ------------------------------------------------------
    def verify_read(self, fs: Any, descriptor: dict) -> str:
        """Compare the staged payload's digest against the declared
        checksum before analysis touches it; raises
        :class:`IntegrityError` on mismatch (the compute task fails,
        the flow retries, and the record ends up quarantined)."""
        declared = descriptor["checksum"]
        staged = fs.stat(descriptor["dest_path"])
        actual = staged.payload_digest
        if actual != declared:
            self.detect("file", "read", path=descriptor["path"])
            raise IntegrityError(
                f"payload digest mismatch on read: {descriptor['dest_path']} "
                f"has {actual}, declared {declared}"
            )
        return actual

    # -- end-of-campaign scrub ----------------------------------------------
    def scrub(self, filesystems: Iterable[Any]) -> int:
        """Sweep at-rest stores for payloads that no longer match their
        declared checksum and quarantine each (rot that landed after
        the record's last consumption — dormant, but never silent).
        Returns the number of rotten files found."""
        found = 0
        for fs in filesystems:
            for f in fs:  # sorted-path iteration (VirtualFS.__iter__)
                if f.kind != "emd" or f.intact:
                    continue
                found += 1
                self.detect("file", "scrub", path=f.path)
                self.quarantine(
                    f.path,
                    reason=(
                        f"at-rest scrub: {fs.name}:{f.path} digest "
                        f"{f.payload_digest} does not match declared {f.checksum}"
                    ),
                )
        return found
