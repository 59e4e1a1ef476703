"""Tests for the watcher substrate (observers + checkpointing)."""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError, WatcherError
from repro.storage import VirtualFS
from repro.watcher import CheckpointStore, PollingObserver, SimObserver


# -- PollingObserver (real filesystem) -----------------------------------------


def test_polling_observer_detects_new_files(tmp_path):
    obs = PollingObserver(tmp_path)
    seen = []
    obs.add_handler(lambda e: seen.append(e.path))
    assert obs.poll_once() == []
    (tmp_path / "a.emd").write_bytes(b"x" * 10)
    events = obs.poll_once()
    assert len(events) == 1
    assert events[0].path.endswith("a.emd")
    assert events[0].size_bytes == 10
    assert seen == [events[0].path]
    # No re-trigger on the next poll.
    assert obs.poll_once() == []


def test_polling_observer_preexisting_files_not_reported(tmp_path):
    (tmp_path / "old.emd").write_bytes(b"x")
    obs = PollingObserver(tmp_path)
    assert obs.poll_once() == []


def test_polling_observer_suffix_filter(tmp_path):
    obs = PollingObserver(tmp_path, suffixes=(".emd",))
    (tmp_path / "junk.tmp").write_bytes(b"x")
    (tmp_path / "good.emd").write_bytes(b"x")
    events = obs.poll_once()
    assert [e.path.endswith(".emd") for e in events] == [True]


def test_polling_observer_recursive(tmp_path):
    obs = PollingObserver(tmp_path, recursive=True)
    sub = tmp_path / "deep" / "deeper"
    sub.mkdir(parents=True)
    (sub / "x.emd").write_bytes(b"x")
    assert len(obs.poll_once()) == 1


def test_polling_observer_bad_root():
    with pytest.raises(WatcherError):
        PollingObserver("/nonexistent/road/to/nowhere")


def test_polling_observer_run_for(tmp_path):
    obs = PollingObserver(tmp_path)
    (tmp_path / "a.emd").write_bytes(b"x")
    n = obs.run_for(duration_s=0.3, interval_s=0.05)
    assert n == 1
    with pytest.raises(WatcherError):
        obs.run_for(0.1, interval_s=0)


class FakeClock:
    """Virtual monotonic clock: sleep() advances time, nothing blocks."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def test_polling_observer_injectable_clock_runs_without_wall_waits(tmp_path):
    clock = FakeClock()
    obs = PollingObserver(tmp_path, clock=clock, sleep=clock.sleep)
    (tmp_path / "a.emd").write_bytes(b"x")
    n = obs.run_for(duration_s=10.0, interval_s=0.5)
    assert n == 1
    # The loop ran entirely on virtual time: 20 polls, zero wall waiting.
    assert clock.sleeps == [0.5] * 20
    assert clock.now == pytest.approx(10.0)


def test_polling_observer_injectable_clock_sees_files_per_poll(tmp_path):
    clock = FakeClock()

    def sleep(seconds: float) -> None:
        clock.sleep(seconds)
        if len(clock.sleeps) == 1:
            # A new file appears during the first sleep interval.
            (tmp_path / "late.emd").write_bytes(b"y")

    obs = PollingObserver(tmp_path, clock=clock, sleep=sleep)
    seen: list[str] = []
    obs.add_handler(lambda e: seen.append(e.path))
    assert obs.run_for(duration_s=2.0, interval_s=0.5) == 1
    assert seen and seen[0].endswith("late.emd")


# -- SimObserver ------------------------------------------------------------------


def test_sim_observer_dispatches_creations():
    vfs = VirtualFS("user")
    obs = SimObserver(vfs, prefix="/transfer")
    seen = []
    obs.add_handler(lambda e: seen.append((e.path, e.size_bytes)))
    vfs.create("/transfer/a.emd", 100, created_at=1.0)
    vfs.create("/elsewhere/b.emd", 200, created_at=2.0)  # outside prefix
    vfs.create("/transfer/notes.txt", 5, created_at=3.0)  # wrong suffix
    assert seen == [("/transfer/a.emd", 100)]
    assert obs.events_seen == 1


def test_sim_observer_event_carries_virtual_file():
    vfs = VirtualFS("user")
    obs = SimObserver(vfs)
    got = []
    obs.add_handler(lambda e: got.append(e))
    vfs.create("/transfer/a.emd", 100, created_at=1.0)
    assert got[0].virtual is not None
    assert got[0].virtual.checksum
    assert got[0].is_emd


def test_sim_observer_stop_detaches():
    vfs = VirtualFS("user")
    obs = SimObserver(vfs)
    seen = []
    obs.add_handler(lambda e: seen.append(e))
    obs.stop()
    obs.stop()  # idempotent
    vfs.create("/transfer/a.emd", 100, created_at=1.0)
    assert seen == []


# -- CheckpointStore -----------------------------------------------------------------


def test_checkpoint_memory_roundtrip():
    ckpt = CheckpointStore()
    assert not ckpt.is_processed("/a", "c1")
    ckpt.mark_processed("/a", "c1")
    assert ckpt.is_processed("/a", "c1")
    assert not ckpt.is_processed("/a", "c2")  # new content retriggers
    assert "/a" in ckpt and len(ckpt) == 1


def test_checkpoint_persists_across_restart(tmp_path):
    path = tmp_path / "ckpt.json"
    ckpt = CheckpointStore(path)
    ckpt.mark_processed("/transfer/a.emd", "abc")
    # Simulate the user machine rebooting: new store, same file.
    again = CheckpointStore(path)
    assert again.is_processed("/transfer/a.emd", "abc")


def test_checkpoint_forget(tmp_path):
    path = tmp_path / "ckpt.json"
    ckpt = CheckpointStore(path)
    ckpt.mark_processed("/a", "c")
    ckpt.forget("/a")
    ckpt.forget("/a")  # idempotent
    assert not CheckpointStore(path).is_processed("/a", "c")


def test_checkpoint_corrupt_file_quarantined(tmp_path):
    """A corrupt store must never abort the restart: it is renamed to
    ``<path>.corrupt``, the watcher continues with an empty store, and
    a warning metric fires."""
    from repro.obs import Observability
    from repro.sim import Environment

    path = tmp_path / "ckpt.json"
    path.write_text("{invalid json")
    obs = Observability(Environment())
    metrics = obs.metrics
    ckpt = CheckpointStore(path, obs=obs)
    assert ckpt.quarantined_path == f"{path}.corrupt"
    assert "corrupt" in ckpt.quarantine_reason
    assert not path.exists()
    assert (tmp_path / "ckpt.json.corrupt").read_text() == "{invalid json"
    assert len(ckpt) == 0
    assert metrics.counter("watcher.checkpoint_quarantined").value == 1
    # Processing continues: the empty store accepts new work and the
    # next flush rebuilds a clean file in place.
    ckpt.mark_processed("/a", "c1")
    assert ckpt.is_processed("/a", "c1")
    assert json.loads(path.read_text()) == {"/a": "c1"}


def test_checkpoint_malformed_store_quarantined(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"a": 1}))  # wrong value type
    ckpt = CheckpointStore(path)
    assert ckpt.quarantined_path == f"{path}.corrupt"
    assert "malformed" in ckpt.quarantine_reason
    assert len(ckpt) == 0
    path.write_text(json.dumps(["not", "a", "dict"]))
    again = CheckpointStore(path)
    assert again.quarantine_reason is not None and len(again) == 0


def test_checkpoint_write_is_atomic(tmp_path):
    path = tmp_path / "ckpt.json"
    ckpt = CheckpointStore(path)
    for i in range(20):
        ckpt.mark_processed(f"/f{i}", f"c{i}")
    doc = json.loads(path.read_text())
    assert len(doc) == 20


def test_checkpoint_flush_failure_cleans_up_temp_file(tmp_path):
    """A TypeError from json.dump (non-serializable entry) used to leak
    the mkstemp temp file and its fd; every flush failure must clean up
    and surface as CheckpointError."""
    path = tmp_path / "ckpt.json"
    ckpt = CheckpointStore(path)
    ckpt.mark_processed("/good", "c1")

    ckpt._seen["/bad"] = object()  # not JSON-serializable
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        ckpt._flush()
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".ckpt-")]
    assert leftovers == []
    # The on-disk store still holds the last good flush.
    assert json.loads(path.read_text()) == {"/good": "c1"}

    # And the store recovers once the bad entry is gone.
    del ckpt._seen["/bad"]
    ckpt.mark_processed("/good2", "c2")
    assert json.loads(path.read_text()) == {"/good": "c1", "/good2": "c2"}


def test_checkpoint_flush_failures_do_not_leak_fds(tmp_path):
    import os

    path = tmp_path / "ckpt.json"
    ckpt = CheckpointStore(path)
    ckpt._seen["/bad"] = object()
    fd_dir = "/proc/self/fd"
    before = len(os.listdir(fd_dir))
    for _ in range(20):
        with pytest.raises(CheckpointError):
            ckpt._flush()
    after = len(os.listdir(fd_dir))
    assert after <= before + 1  # no fd growth across repeated failures


# -- crash-restart recovery ----------------------------------------------------


def test_sim_observer_restart_replays_missed_files():
    """The crash-recovery protocol: files created while the watcher was
    down are recovered by the restart replay, and a checkpoint-style
    dedup handler dispatches each file exactly once — none lost, none
    doubled."""
    vfs = VirtualFS("user")
    obs = SimObserver(vfs, prefix="/transfer")
    dispatched: list[str] = []
    seen: set[str] = set()

    def handler(ev):
        if ev.path in seen:  # checkpoint dedup
            return
        seen.add(ev.path)
        dispatched.append(ev.path)

    obs.add_handler(handler)
    vfs.create("/transfer/a.emd", 100, created_at=1.0)
    assert obs.running

    obs.stop()  # crash
    assert not obs.running
    vfs.create("/transfer/b.emd", 100, created_at=2.0)  # missed while down
    vfs.create("/transfer/c.emd", 100, created_at=3.0)

    replayed = obs.restart(replay=True)
    assert obs.running
    assert replayed == 3  # the startup scan walks the whole prefix
    # a (already dispatched, deduped), b and c recovered — exactly once each
    assert sorted(dispatched) == [
        "/transfer/a.emd", "/transfer/b.emd", "/transfer/c.emd"
    ]

    # live events flow again after restart
    vfs.create("/transfer/d.emd", 100, created_at=4.0)
    assert "/transfer/d.emd" in dispatched


def test_sim_observer_restart_without_replay_loses_downtime_files():
    vfs = VirtualFS("user")
    obs = SimObserver(vfs, prefix="/transfer")
    seen = []
    obs.add_handler(lambda e: seen.append(e.path))
    obs.stop()
    vfs.create("/transfer/lost.emd", 100, created_at=1.0)
    assert obs.restart(replay=False) == 0
    assert seen == []  # documented data-loss mode
    vfs.create("/transfer/live.emd", 100, created_at=2.0)
    assert seen == ["/transfer/live.emd"]


def test_sim_observer_restart_while_running_raises():
    vfs = VirtualFS("user")
    obs = SimObserver(vfs)
    with pytest.raises(WatcherError):
        obs.restart()  # would double-subscribe and dispatch twice


def test_polling_observer_run_for_clamps_trailing_sleep(tmp_path):
    """Regression: the last sleep used to run a full interval past the
    deadline, overshooting ``duration_s`` by up to ``interval_s``."""
    clock = FakeClock()
    obs = PollingObserver(tmp_path, clock=clock, sleep=clock.sleep)
    obs.run_for(duration_s=0.9, interval_s=0.4)
    assert clock.sleeps == [0.4, 0.4, pytest.approx(0.1)]
    assert clock.now == pytest.approx(0.9)


def test_polling_observer_run_for_exact_multiple_unchanged(tmp_path):
    """A duration that divides evenly keeps the historical schedule."""
    clock = FakeClock()
    obs = PollingObserver(tmp_path, clock=clock, sleep=clock.sleep)
    obs.run_for(duration_s=10.0, interval_s=0.5)
    assert clock.sleeps == [0.5] * 20
    assert clock.now == pytest.approx(10.0)


def test_sim_observer_restart_counts_only_dispatched_files():
    """Regression: ``restart(replay=True)`` used to return the raw
    ``listdir`` length, counting files the prefix/suffix filter then
    rejected."""
    vfs = VirtualFS("user")
    obs = SimObserver(vfs, prefix="/transfer")
    seen = []
    obs.add_handler(lambda e: seen.append(e.path))
    vfs.create("/transfer/a.emd", 1, created_at=0.0)
    obs.stop()
    vfs.create("/transfer/b.emd", 1, created_at=1.0)  # missed while down
    vfs.create("/transfer/skip.txt", 1, created_at=1.5)  # filtered suffix
    replayed = obs.restart(replay=True)
    assert replayed == 2  # a + b dispatched; skip.txt rejected, not counted
    assert seen == ["/transfer/a.emd", "/transfer/a.emd", "/transfer/b.emd"]


def test_sim_observer_root_prefix_matches_listdir():
    """The root prefix accepts every path, live and replayed alike."""
    vfs = VirtualFS("user")
    obs = SimObserver(vfs, prefix="/")
    seen = []
    obs.add_handler(lambda e: seen.append(e.path))
    vfs.create("/a.emd", 1, created_at=0.0)
    assert seen == ["/a.emd"]
    obs.stop()
    vfs.create("/deep/b.emd", 1, created_at=1.0)
    assert obs.restart(replay=True) == 2
