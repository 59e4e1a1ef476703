#!/usr/bin/env python
"""Fault tolerance and resume: retries, checksums, and checkpointing.

Two vignettes the paper's infrastructure claims (Sec. 2.2.1) but never
shows in numbers:

1. **Faulty network** — a campaign with 25% transient-fault probability
   per transfer attempt: every flow still completes (Globus-style retry +
   checksum verification), at the cost of longer transfer times.
2. **User-machine reboot** — the trigger app restarts mid-campaign with
   the same checkpoint store; already-processed files do not re-trigger
   flows ("avoid undesired flow repeats").

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.chaos import ChaosPlan
from repro.core import (
    FlowTriggerApp,
    analyze_virtual_hyperspectral,
    hyperspectral_cost_model,
    picoprobe_flow,
    run_campaign,
)
from repro.instrument import HYPERSPECTRAL_USE_CASE
from repro.testbed import DEFAULT_CALIBRATION, build_testbed
from repro.transfer import FaultPlan
from repro.watcher import CheckpointStore, SimObserver


def in_window(result) -> list:
    """Runs that completed inside the campaign window.  A campaign with
    an enabled chaos plan drains past ``duration_s`` while a clean one
    stops there, so the two are compared over the window only."""
    return [r for r in result.completed_runs if r.finished_at <= result.duration_s]


def faulty_network_campaign() -> None:
    print("=== vignette 1: 25% transient transfer faults ===")
    clean = run_campaign("hyperspectral", duration_s=1200, seed=4)
    faulty = run_campaign(
        "hyperspectral",
        duration_s=1200,
        seed=4,
        chaos=ChaosPlan(transfer_faults=FaultPlan(transient_prob=0.25, max_attempts=6)),
    )
    c_runs, f_runs = in_window(clean), in_window(faulty)
    attempts = [
        r.step("TransferData").result.get("attempts", 1) for r in f_runs
    ]
    print(f"clean : {len(c_runs)} flows, mean runtime "
          f"{np.mean([r.runtime_seconds for r in c_runs]):.1f}s")
    print(f"faulty: {len(f_runs)} flows, mean runtime "
          f"{np.mean([r.runtime_seconds for r in f_runs]):.1f}s, "
          f"{sum(a > 1 for a in attempts)} flows needed transfer retries "
          f"(max {max(attempts)} attempts)")
    assert all(r.status.value == "SUCCEEDED" for r in f_runs)
    print("every faulty-campaign flow still SUCCEEDED (retry + checksum)\n")


def reboot_resume() -> None:
    print("=== vignette 2: reboot + checkpoint resume ===")
    tb = build_testbed(seed=9)
    fid = tb.compute.register_function(
        analyze_virtual_hyperspectral,
        hyperspectral_cost_model(DEFAULT_CALIBRATION, tb.rngs),
    )
    definition = picoprobe_flow(tb.gladier, "picoprobe-hyperspectral")
    checkpoint = CheckpointStore()  # one store across the "reboot"

    # Session 1: three files arrive, flows start.
    app1 = FlowTriggerApp(tb, definition, fid, checkpoint=checkpoint)
    obs1 = SimObserver(tb.user_fs, prefix="/transfer")
    app1.attach(obs1)
    uc = HYPERSPECTRAL_USE_CASE
    files = []
    for i in range(3):
        md = tb.instrument.stamp_metadata(
            uc.signal_type, uc.shape, uc.dtype, uc.sample, acquired_at=float(i)
        )
        files.append(
            tb.user_fs.create(
                f"/transfer/run_{i}.emd", uc.file_size_bytes,
                created_at=float(i), metadata=md,
            )
        )
    print(f"session 1 started {len(app1.runs)} flows")

    # The machine "reboots": the observer dies, a fresh app attaches with
    # the same checkpoint store, and the staged files are re-scanned
    # (re-announced) on startup.
    obs1.stop()
    app2 = FlowTriggerApp(tb, definition, fid, checkpoint=checkpoint)
    obs2 = SimObserver(tb.user_fs, prefix="/transfer")
    app2.attach(obs2)
    for f in files:  # the rescan re-creates events for existing files
        tb.user_fs.create(
            f.path, f.size_bytes, created_at=10.0, checksum=f.checksum,
            metadata=f.metadata, overwrite=True,
        )
    print(f"session 2 re-announced {len(files)} files -> "
          f"{len(app2.runs)} new flows, {app2.skipped} skipped by checkpoint")
    assert len(app2.runs) == 0 and app2.skipped == 3

    # A genuinely new acquisition still triggers.
    md = tb.instrument.stamp_metadata(
        uc.signal_type, uc.shape, uc.dtype, uc.sample, acquired_at=11.0
    )
    tb.user_fs.create("/transfer/run_new.emd", uc.file_size_bytes, created_at=11.0, metadata=md)
    print(f"new file after resume -> session-2 flows: {len(app2.runs)}")
    tb.env.run()
    done = app1.completed_runs + app2.completed_runs
    print(f"all {len(done)} flows completed: "
          f"{all(r.status.value == 'SUCCEEDED' for r in done)}")


if __name__ == "__main__":
    faulty_network_campaign()
    reboot_resume()
