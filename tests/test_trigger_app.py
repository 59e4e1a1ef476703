"""The trigger contract, shared by both ingest modes.

``FlowTriggerApp`` (file mode) and ``StreamIngestApp`` (stream mode)
are the one :class:`~repro.core.app.TriggerApp` with different
launches, so every watcher-side guarantee must hold in both: the EMD
filter, the real-filesystem guard, checkpoint dedup, the record
subject, open-chain quarantine and the completion callbacks.
"""

from __future__ import annotations

import pytest

from repro.core import TriggerApp, run_campaign
from repro.errors import ComputeError
from repro.instrument import HYPERSPECTRAL_USE_CASE
from repro.units import MB
from repro.watcher import FileCreatedEvent

INGEST = pytest.mark.parametrize("ingest", ["file", "stream"])


def _world(ingest: str, integrity: bool = False):
    """A short campaign's testbed and app.  Test files live outside the
    watched prefix, so only the test triggers them."""
    res = run_campaign(
        "hyperspectral", duration_s=1.0, seed=3, ingest=ingest,
        integrity=integrity,
    )
    assert isinstance(res.app, TriggerApp)
    return res.testbed, res.app


def _file(tb, name: str, metadata: bool = True, kind: str = "emd"):
    uc = HYPERSPECTRAL_USE_CASE
    md = tb.instrument.stamp_metadata(
        uc.signal_type, uc.shape, uc.dtype, uc.sample, acquired_at=tb.env.now
    )
    return tb.user_fs.create(
        f"/manual/{name}", MB(64), created_at=tb.env.now,
        metadata=md if metadata else None, kind=kind,
    )


def _event(vf) -> FileCreatedEvent:
    return FileCreatedEvent(
        path=vf.path, size_bytes=vf.size_bytes, mtime=vf.created_at, virtual=vf
    )


@INGEST
def test_non_emd_file_is_ignored(ingest):
    tb, app = _world(ingest)
    n = len(app.records)
    assert app.handle_event(_event(_file(tb, "plot.png", kind="plot"))) is None
    assert len(app.records) == n and app.skipped == 0


@INGEST
def test_real_filesystem_event_is_refused(ingest):
    _, app = _world(ingest)
    event = FileCreatedEvent(path="/data/a.emd", size_bytes=MB(1), mtime=0.0)
    with pytest.raises(ComputeError, match="real-filesystem"):
        app.handle_event(event)


@INGEST
def test_duplicate_checksum_is_skipped(ingest):
    tb, app = _world(ingest)
    event = _event(_file(tb, "a.emd"))
    record = app.handle_event(event)
    assert record is not None and app.records[-1] is record
    n = len(app.records)
    assert app.handle_event(event) is None
    assert app.skipped == 1 and len(app.records) == n


@INGEST
def test_subject_falls_back_to_checksum_without_metadata(ingest):
    tb, app = _world(ingest, integrity=True)
    bare = _file(tb, "bare.emd", metadata=False)
    # The chain opens under the fallback subject; the analysis descriptor
    # needs metadata, so the launch itself is refused in both modes.
    with pytest.raises(ComputeError, match="no embedded metadata"):
        app.handle_event(_event(bare))
    assert app.ledger.chain(bare.path).subject == bare.checksum
    assert not app.checkpoint.is_processed(bare.path, bare.checksum)


@INGEST
def test_open_chain_is_quarantined_once_and_callbacks_fire_once(ingest):
    tb, app = _world(ingest, integrity=True)
    seen = []
    app.on_complete.append(seen.append)
    vf = _file(tb, "rot.emd")
    tb.user_fs.corrupt(vf.path, salt="test")  # the source never verifies
    clean = app.handle_event(_event(_file(tb, "ok.emd")))
    rotten = app.handle_event(_event(vf))
    tb.env.run(until=tb.env.now + 3600.0)
    assert [q.path for q in app.ledger.quarantined] == [vf.path]
    assert app.ledger.chain("/manual/ok.emd").closed
    # every record completed exactly once, the rotten one included
    assert sorted(map(id, seen)) == sorted(map(id, app.records))
    assert rotten in seen and clean in seen
