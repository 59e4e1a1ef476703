"""Streaming ingest: the detector→compute fast path.

The paper's measured pipeline stages data through files — watcher,
Globus transfer, polled flow steps — and Fig. 4 shows the polling and
detection lag dominating small-flow latency.  The follow-on streaming
work (Welborn et al.) replaces that pipeline with sockets from the
detector straight into compute nodes.  This package reproduces that
alternative inside the same testbed so the two ingest modes can be
measured head-to-head:

* :class:`StreamPublisher` — instrument-side: slices acquisitions into
  sequence-numbered chunks and pushes them over long-lived fabric
  streams, with gap renegotiation after link blackouts;
* :class:`StreamReceiver` — compute-side: credit-window backpressure,
  exactly-once in-order reassembly, and the partial-data analysis
  trigger;
* :class:`StreamIngestApp` — the shared trigger app
  (:class:`~repro.core.app.TriggerApp`) with a stream launch: a session
  per file, analysis on partial data, publication to search;
* :func:`retry_outages` — the one outage-retry loop for the gated
  control-plane calls (handshake, analysis submit, search publish).

Campaigns select the path per flow with ``ingest="file" | "stream"``
(see :func:`repro.core.run_campaign`); file mode is bit-identical with
this package present.
"""

from .ingest import StreamIngestApp
from .publisher import StreamPublisher, retry_outages
from .receiver import StreamReceiver
from .session import FrameChunk, StreamSession, chunk_sizes

__all__ = [
    "FrameChunk",
    "StreamIngestApp",
    "StreamPublisher",
    "StreamReceiver",
    "StreamSession",
    "chunk_sizes",
    "retry_outages",
]
