#!/usr/bin/env python
"""Real-filesystem operation: watch a directory, analyze real EMD files.

Everything in this example is *real*, no simulation: the instrument
writes genuine EMD files into a watched directory, the cross-platform
polling observer (the watchdog stand-in) detects them, the checkpoint
store guards against reprocessing, and each file goes through the real
hyperspectral analysis into a search index + portal — the operational
mode the paper's user machines run in, minus the wide-area hop.

Run:  python examples/realtime_watcher.py [output_dir]
"""

import os
import sys
import time

from repro.analysis import analyze_hyperspectral_file
from repro.emd import write_emd
from repro.instrument import PicoProbe
from repro.portal import Portal
from repro.rng import RngRegistry
from repro.search import SearchIndex
from repro.watcher import CheckpointStore, PollingObserver


def main(out_dir: str = "watcher_out") -> None:
    staging = os.path.join(out_dir, "transfer")
    results = os.path.join(out_dir, "results")
    os.makedirs(staging, exist_ok=True)
    os.makedirs(results, exist_ok=True)

    observer = PollingObserver(staging, suffixes=(".emd",))
    checkpoint = CheckpointStore(os.path.join(out_dir, "checkpoint.json"))
    index = SearchIndex("realtime")
    probe = PicoProbe(RngRegistry(seed=int(time.time()) % 10000), operator="live-user")

    processed = []

    def on_created(event):
        checksum = f"{event.size_bytes}:{event.mtime}"
        if checkpoint.is_processed(event.path, checksum):
            print(f"  skip (checkpointed): {event.path}")
            return
        t0 = time.perf_counter()
        record = analyze_hyperspectral_file(event.path, results)
        dt = time.perf_counter() - t0
        subject = record["experiment"]["acquisition_id"]
        index.ingest(subject, record)
        checkpoint.mark_processed(event.path, checksum)
        processed.append(subject)
        print(f"  analyzed {os.path.basename(event.path)} in {dt:.1f}s "
              f"-> elements {', '.join(record['detected_elements'])}")

    observer.add_handler(on_created)

    print(f"watching {staging} — acquiring 3 hyperspectral maps...")
    for i in range(3):
        signal, _ = probe.acquire_hyperspectral(shape=(96, 96), n_channels=512)
        path = os.path.join(staging, f"{signal.metadata.acquisition_id}.emd")
        write_emd(path, signal, compression="zlib")
        print(f"instrument wrote {os.path.basename(path)} "
              f"({os.path.getsize(path) / 1e6:.1f} MB)")
        observer.poll_once()  # the watcher's polling tick

    # A second poll finds nothing new; re-announcing files is also safe.
    assert observer.poll_once() == []
    print(f"\nprocessed {len(processed)} files; checkpoint holds {len(checkpoint)}")

    portal = Portal(index, title="Live PicoProbe Portal")
    pages = portal.build(os.path.join(out_dir, "portal"))
    print(f"portal: {pages[0]}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "watcher_out")
