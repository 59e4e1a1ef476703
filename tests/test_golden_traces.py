"""Golden-trace bit-identity suite: the gate for kernel/fabric perf work.

Each checked-in golden under ``tests/goldens/`` is the full observable
fingerprint of one shipped campaign — step-level event trace, run/step
transition trace, span stream hash, Table 1 and Fig. 4 numbers —
recorded on the pre-optimization kernel and fabric.  Replaying the same
campaign on the current code must reproduce every byte.

``trace=True`` replays record through a dispatch hook on the kernel's
one drain loop — the loop every untraced campaign runs — so the goldens
pin the event order that campaigns and the benchmark actually execute.
A second set of untraced replays, with no hook attached, checks that
they land on the same Table 1 / Fig. 4 numbers.

Stream-mode goldens (``stream-*``) pin each session's terminal record,
the quarantine list and the indexed subjects in place of Table 1 /
Fig. 4, which stream campaigns do not produce.

The goldens were re-recorded once, when the stream path's zero-delay
hops (fabric admission and scheduler wake-ups, the per-chunk
``any_of``, the receiver's drain process and ``Store``s) became timer
callbacks.  ``tests/goldens/fingerprints.json`` holds each golden's
fingerprint from before that change, and every golden must still obey
the rule it states: the same outcome, the same timed lines, and fewer
events with no hop kind rising.

A short traced campaign per ingest mode is also replayed in two
subprocesses under different ``PYTHONHASHSEED`` values: string-keyed
dicts on the hot path (the fabric's route memo among them) must not let
hash order reach the schedule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

from tests import golden_capture

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

_PARAMS = ("kind", "use_case", "seed", "tiebreak", "ingest")
_SPECS = golden_capture.GOLDEN_SPECS


def _name(*spec) -> str:
    return golden_capture.golden_filename(*spec)[: -len(".json.gz")]


_IDS = [_name(*spec) for spec in _SPECS]


def _load(*spec) -> dict:
    path = os.path.join(GOLDEN_DIR, golden_capture.golden_filename(*spec))
    assert os.path.exists(path), f"missing golden: {path}"
    return golden_capture.read_golden(path)


def test_golden_set_is_complete():
    recorded = sorted(f for f in os.listdir(GOLDEN_DIR) if f.endswith(".json.gz"))
    expected = sorted(golden_capture.golden_filename(*spec) for spec in _SPECS)
    assert recorded == expected


@pytest.mark.parametrize(_PARAMS, _SPECS, ids=_IDS)
def test_golden_keeps_outcome_and_timers(kind, use_case, seed, tiebreak, ingest):
    """The rule the re-recorded goldens obey against their fingerprints
    from before the hops were removed: the payload without ``events``
    hashes the same; the ``Timeout``, ``AllOf`` and ``Request`` lines
    hash the same, so every timer fires at the same time and in the
    same order; there are fewer events, no new kind, and no
    ``Initialize``, ``Process``, ``AnyOf`` or ``Event`` count rises."""
    with open(golden_capture.FINGERPRINTS, encoding="utf-8") as fh:
        table = json.load(fh)
    assert sorted(table) == sorted(_IDS)
    spec = (kind, use_case, seed, tiebreak, ingest)
    before = table[_name(*spec)]
    after = golden_capture.golden_fingerprint(_load(*spec))
    assert after["outcome_sha256"] == before["outcome_sha256"]
    assert after["timed_sha256"] == before["timed_sha256"]
    assert after["events"] < before["events"]
    allowed = set(golden_capture.TIMED_KINDS) | set(golden_capture.HOP_KINDS)
    assert set(after["kinds"]) <= allowed
    for hop in golden_capture.HOP_KINDS:
        assert after["kinds"].get(hop, 0) <= before["kinds"].get(hop, 0), hop


@pytest.mark.parametrize(_PARAMS, _SPECS, ids=_IDS)
def test_replay_is_bit_identical(kind, use_case, seed, tiebreak, ingest):
    golden = _load(kind, use_case, seed, tiebreak, ingest)
    replay = golden_capture.capture_golden(kind, use_case, seed, tiebreak, ingest)
    # Compare the event trace first and with counts, so a divergence
    # fails with a readable position instead of a giant dict diff.
    g_events, r_events = golden["events"], replay["events"]
    assert len(r_events) == len(g_events)
    for i, (g, r) in enumerate(zip(g_events, r_events)):
        assert r == g, f"trace diverges at event {i}: golden={g!r} replay={r!r}"
    assert replay == golden


@pytest.mark.parametrize(
    _PARAMS,
    [spec for spec in _SPECS if spec[2] == 1],
    ids=[i for i in _IDS if "-s1-" in i],
)
def test_fast_path_matches_goldens(kind, use_case, seed, tiebreak, ingest):
    """Untraced replays (no dispatch hook) land on the golden numbers."""
    from repro.chaos import NO_CHAOS, delivery_breakdown
    from repro.core.campaign import run_campaign
    from repro.core.stats import fig4_samples

    golden = _load(kind, use_case, seed, tiebreak, ingest)
    res = run_campaign(
        use_case, duration_s=3600.0, seed=seed, tiebreak=tiebreak, ingest=ingest,
        chaos=NO_CHAOS if kind == "campaign" else kind,
    )
    assert res.trace is None and res.testbed.env._hooks == ()  # really unhooked
    if ingest == "stream":
        outcome = golden_capture.stream_outcome(res)
        assert outcome == {k: golden[k] for k in outcome}
        return
    if kind != "campaign":
        assert delivery_breakdown(res) == golden["breakdown"]
    assert asdict(res.table1()) == golden["table1"]
    assert fig4_samples(res.runs) == golden["fig4"]


#: Replays one short traced hyperspectral campaign per ingest mode and
#: prints the digests of its event trace and span stream.
_HASHSEED_REPLAY = """
import hashlib, json
from tests.golden_capture import capture_golden

out = {"hash_probe": hash("picoprobe")}
for ingest in ("file", "stream"):
    g = capture_golden("campaign", "hyperspectral", 1, "fifo", ingest, duration_s=600.0)
    events = json.dumps(g["events"]).encode("utf-8")
    out[ingest] = {
        "n_events": len(g["events"]),
        "events_sha256": hashlib.sha256(events).hexdigest(),
        "spans_sha256": g["spans_sha256"],
    }
print(json.dumps(out))
"""


def _replay_under_hash_seed(seed: int) -> dict:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(
        p for p in (os.path.join(root, "src"), root, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_REPLAY],
        capture_output=True,
        text=True,
        check=True,
        cwd=root,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_replay_is_independent_of_hash_seed():
    """No string-hash order leaks into the schedule: the same campaign
    under two ``PYTHONHASHSEED`` values dispatches the same events and
    records the same spans, in file and in stream mode."""
    a = _replay_under_hash_seed(0)
    b = _replay_under_hash_seed(12345)
    assert a.pop("hash_probe") != b.pop("hash_probe")  # the seeds took effect
    assert a["file"]["n_events"] > 0 and a["stream"]["n_events"] > 0
    assert a == b


@pytest.mark.parametrize("scenario", ("clean", "full-storm", "corruption"))
@pytest.mark.parametrize("ingest", ("file", "stream"))
def test_no_event_is_dispatched_without_a_waiter(monkeypatch, ingest, scenario):
    """Every event the loop dispatches has a callback: no exit of an
    unjoined process, no completion event nobody joins.  Counted through
    the trace recorder's dispatch hook, which sees each event before its
    callbacks run."""
    from repro.chaos import NO_CHAOS
    from repro.core.campaign import run_campaign
    from repro.sim import EventTraceRecorder

    unwaited: list[str] = []
    on_dispatch = EventTraceRecorder._on_dispatch

    def counting(self, now, priority, event):
        if not event.callbacks:
            unwaited.append(f"{now!r} {priority} {type(event).__name__}")
        on_dispatch(self, now, priority, event)

    monkeypatch.setattr(EventTraceRecorder, "_on_dispatch", counting)
    res = run_campaign(
        "hyperspectral", duration_s=900.0, seed=1, tiebreak="fifo", trace=True,
        ingest=ingest, chaos=NO_CHAOS if scenario == "clean" else scenario,
    )
    assert len(res.trace) > 0
    assert unwaited == [], f"{len(unwaited)} unwaited, first: {unwaited[:3]}"
