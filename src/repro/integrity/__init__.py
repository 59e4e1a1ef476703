"""``repro.integrity`` — end-to-end data integrity for the data plane.

The paper's pipeline moves every acquisition through at least three
custody hops (instrument → facility storage/stream → analysis → search
portal); this subsystem makes each hop *verifiable* and the whole chain
*auditable*:

* :mod:`~repro.integrity.digest` — the byte-less digest arithmetic the
  simulation uses (payload digests, per-chunk derivation, deterministic
  mangling for injected corruption);
* :mod:`~repro.integrity.chain` — the per-acquisition
  :class:`DigestChain` attesting ``acquired`` →
  ``transferred``/``streamed`` → ``analyzed``;
* :mod:`~repro.integrity.ledger` — the campaign-wide
  :class:`IntegrityLedger`: detections, repairs, the quarantine
  dead-letter, the search-publish gate, verify-on-read, and the
  end-of-campaign scrub;
* :mod:`~repro.integrity.audit` — the span-walking proof that every
  injected corruption was repaired or quarantined (zero silent
  acceptances), with the file-vs-stream detection-latency breakdown;
  :func:`audit_campaign` scrubs a traced campaign's stores and runs it
  (``python -m repro integrity``).
"""

from .audit import (
    InjectionRecord,
    IntegrityAuditReport,
    audit_campaign,
    audit_spans,
    format_audit,
)
from .chain import STAGES, ChainLink, DigestChain
from .digest import chunk_digest, mangle
from .ledger import IntegrityLedger, QuarantineRecord

__all__ = [
    "STAGES",
    "ChainLink",
    "DigestChain",
    "InjectionRecord",
    "IntegrityAuditReport",
    "IntegrityLedger",
    "QuarantineRecord",
    "audit_campaign",
    "audit_spans",
    "chunk_digest",
    "format_audit",
    "mangle",
]
