"""Frame chunks and stream sessions: the wire units of streaming ingest.

A :class:`StreamSession` is one acquisition streamed from the
instrument host to a compute endpoint — the streaming counterpart of
one file-mode flow run.  The publisher slices the acquisition into
fixed-size :class:`FrameChunk` records (the last chunk carries the
remainder), numbers them, and sends them one at a time over fabric
streams, so the receiver takes them in sequence order.

The session record doubles as the timing ledger the Fig.-4-style
ingest comparison reads: creation, first/last chunk delivery, the
partial-data analysis kickoff, and publication are all stamped in
simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import StreamError
from ..sim import Event

__all__ = ["FrameChunk", "StreamSession", "chunk_sizes"]


@dataclass(frozen=True)
class FrameChunk:
    """One fixed-size slice of an acquisition, as sent on the wire."""

    seq: int
    nbytes: float
    #: Wire digest computed by the publisher at send time (``None``
    #: when the session streams without integrity verification).
    digest: Optional[str] = None


def chunk_sizes(total_bytes: float, chunk_bytes: float) -> list[float]:
    """Slice ``total_bytes`` into full chunks plus a remainder chunk."""
    if total_bytes <= 0:
        raise StreamError(f"stream payload must be positive, got {total_bytes}")
    if chunk_bytes <= 0:
        raise StreamError(f"chunk size must be positive, got {chunk_bytes}")
    n_full = int(total_bytes // chunk_bytes)
    sizes = [float(chunk_bytes)] * n_full
    remainder = total_bytes - n_full * chunk_bytes
    if remainder > 0:
        sizes.append(float(remainder))
    return sizes


@dataclass
class StreamSession:
    """One acquisition in flight from detector to compute.

    Lifecycle: ``STREAMING`` → ``DELIVERED`` (all chunks contiguously
    received) → ``PUBLISHED`` (analysis output ingested into search),
    ``FAILED``, or ``QUARANTINED`` (the digest chain did not close —
    the record was dead-lettered, never indexed); :attr:`status` is the
    terminal state.  The DES events fire exactly once each:

    * :attr:`threshold` — the first ``threshold_chunks`` chunks landed
      in order; in-flight analysis may start on this partial data;
    * :attr:`delivered` — every chunk landed.

    Sessions with a :attr:`declared_digest` verify every chunk on
    arrival; :attr:`failed` (created only for those) fires when the
    publisher gives up on an unrepairable chunk.
    """

    session_id: str
    path: str
    total_bytes: float
    chunk_bytes: float
    total_chunks: int
    threshold_chunks: int
    created_at: float
    threshold: Event
    delivered: Event
    #: The source :class:`~repro.storage.VirtualFile`, when streaming
    #: out of a virtual filesystem (campaign mode).
    virtual: Any = None
    #: The acquisition's declared checksum; enables per-chunk digest
    #: verification when set.
    declared_digest: Optional[str] = None
    #: Fires when the publisher exhausts retransmits on a chunk that
    #: never verifies (``None`` unless verification is enabled).
    failed: Optional[Event] = None
    status: str = "STREAMING"
    error: Optional[str] = None

    # -- timing ledger (simulated seconds) --------------------------------
    first_chunk_at: Optional[float] = None
    threshold_at: Optional[float] = None
    last_chunk_at: Optional[float] = None
    analysis_started_at: Optional[float] = None
    analysis_done_at: Optional[float] = None
    published_at: Optional[float] = None

    # -- protocol accounting ----------------------------------------------
    #: Always 0 (the receiver raises on a duplicate chunk); kept for the
    #: ``stream.session`` span attribute, the stream goldens and the
    #: benchmark's ``stream.duplicates``, and goes with them.
    duplicates: int = 0
    #: Renegotiations after chunk-delivery timeouts.
    renegotiations: int = 0
    chunks_sent: int = 0
    #: Chunks the receiver rejected on digest/size verification.
    naks: int = 0
    #: Chunks the publisher re-sent in response to a NAK.
    retransmits: int = 0

    @property
    def detection_to_analysis_s(self) -> Optional[float]:
        """Creation → analysis kickoff: the latency Fig. 4 attributes to
        detection + staging in file mode, collapsed by streaming."""
        if self.analysis_started_at is None:
            return None
        return self.analysis_started_at - self.created_at

    @property
    def end_to_end_s(self) -> Optional[float]:
        if self.published_at is None:
            return None
        return self.published_at - self.created_at

    @property
    def terminal(self) -> bool:
        return self.status in ("PUBLISHED", "FAILED", "QUARANTINED")
