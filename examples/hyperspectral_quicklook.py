#!/usr/bin/env python
"""Fig. 2 content pipeline on real data: acquire → analyze → portal page.

Acquires a (laptop-scale) hyperspectral cube of the polyamide-film
phantom from the simulated PicoProbe, writes a real EMD file, runs the
real Sec. 3.1 analysis (intensity image, sum spectrum, element
identification, HyperSpy-style metadata extraction), publishes the
record, and builds the DGPF-style portal page — the full Fig. 2 panel.

Run:  python examples/hyperspectral_quicklook.py [output_dir]
Artifacts land in ``output_dir`` (default ``./quicklook_out``).
"""

import os
import sys

from repro.analysis import analyze_hyperspectral_file, identify_elements, sum_spectrum
from repro.emd import write_emd
from repro.instrument import PicoProbe
from repro.portal import Portal
from repro.rng import RngRegistry
from repro.search import SearchIndex


def main(out_dir: str = "quicklook_out") -> None:
    os.makedirs(out_dir, exist_ok=True)

    # 1. Acquire: 128x128 map with 1024 energy channels of the polyamide
    #    membrane treated to capture heavy metals (Au/Pb decorate it).
    probe = PicoProbe(RngRegistry(seed=7), operator="quicklook-user")
    probe.set_beam_energy(300.0)
    probe.move_stage(x_um=12.5, y_um=-3.2, alpha_deg=2.0)
    signal, particles = probe.acquire_hyperspectral(shape=(128, 128), n_channels=1024)
    print(f"acquired {signal.metadata.acquisition_id}: shape {signal.data.shape}, "
          f"{len(particles)} heavy-metal particles in the phantom")

    emd_path = os.path.join(out_dir, f"{signal.metadata.acquisition_id}.emd")
    write_emd(emd_path, signal, compression="zlib")
    print(f"wrote {emd_path} ({os.path.getsize(emd_path) / 1e6:.1f} MB on disk)")

    # 2. Analyze: the real combined function (reductions + plots + metadata).
    record = analyze_hyperspectral_file(emd_path, out_dir)
    print(f"detected elements: {', '.join(record['detected_elements'])}")

    hits = identify_elements(
        sum_spectrum(signal.data), signal.dims[2].values
    )
    print("strongest characteristic lines:")
    for h in hits[:5]:
        print(
            f"  {h.element:>2s} {h.line_label:<6s} line {h.line_energy_ev:7.1f} eV "
            f"matched peak at {h.peak_energy_ev:7.1f} eV"
        )

    # 3. Publish + portal: the Fig. 2 page (A: image, B: spectrum, C: table).
    index = SearchIndex("quicklook")
    index.ingest(record["experiment"]["acquisition_id"], record)
    portal = Portal(index, title="PicoProbe Quicklook Portal")
    written = portal.build(os.path.join(out_dir, "portal"))
    print("portal pages:")
    for p in written:
        print(f"  {p}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "quicklook_out")
