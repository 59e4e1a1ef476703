"""Fig. 2: the hyperspectral portal page (image, spectrum, metadata).

Runs the *real* Sec. 3.1 content pipeline — synthesize a hyperspectral
cube of the polyamide/heavy-metal phantom, write a real EMD file, do the
reductions + metadata extraction + plot rendering, publish, and build
the portal record page — then checks each Fig. 2 panel is present and
correct.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import (
    analyze_hyperspectral_file,
    identify_elements,
    intensity_map,
    sum_spectrum,
)
from repro.emd import read_emd, write_emd
from repro.instrument import PicoProbe
from repro.portal import Portal
from repro.rng import RngRegistry
from repro.search import SearchIndex

from conftest import report


@pytest.fixture(scope="module")
def emd_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    probe = PicoProbe(RngRegistry(seed=7), operator="bench-user")
    signal, particles = probe.acquire_hyperspectral(shape=(128, 128), n_channels=1024)
    path = out / f"{signal.metadata.acquisition_id}.emd"
    write_emd(path, signal, compression="zlib")
    return str(path), str(out), signal, particles


def test_fig2_hyperspectral_page(emd_file, output_dir):
    path, out, signal, particles = emd_file
    record = analyze_hyperspectral_file(path, out)

    # Panel A: the intensity image (sum over the spectral axis).
    img = intensity_map(signal.data)
    assert img.shape == (128, 128)
    assert "intensity image" in record["plots"]
    # Heavy-metal particles are bright in the intensity image: the mean
    # intensity at particle centers beats the background mean.
    centers = np.array([[int(p.row), int(p.col)] for p in particles])
    at_particles = img[centers[:, 0], centers[:, 1]].mean()
    assert at_particles > img.mean() * 1.2

    # Panel B: the sum spectrum with the sample's characteristic lines.
    spec = sum_spectrum(signal.data)
    hits = identify_elements(spec, signal.dims[2].values)
    found = {h.element for h in hits}
    assert {"C", "N", "O"} <= found  # the polyamide matrix
    assert "Au" in found or "Pb" in found  # the captured heavy metals
    assert "sum spectrum" in record["plots"]

    # Panel C: the metadata table fields the portal renders.
    exp = record["experiment"]
    assert exp["microscope"]["beam_energy_kev"] == 300.0
    assert exp["microscope"]["detectors"][0]["name"] == "XPAD"
    assert exp["sample"]["elements"]

    # The page itself.
    index = SearchIndex("fig2")
    index.ingest(exp["acquisition_id"], record)
    html = Portal(index).render_record(exp["acquisition_id"])
    assert html.count("<svg") >= 2  # A and B embedded
    assert "Beam energy (keV)" in html  # C rendered
    with open(os.path.join(output_dir, "fig2_record.html"), "w", encoding="utf-8") as fh:
        fh.write(html)

    report(
        "fig2",
        [
            f"cube shape        : {signal.data.shape}",
            f"elements detected : {sorted(found)}  (phantom: C/N/O film + Au/Pb)",
            f"plots embedded    : {sorted(record['plots'])}",
            f"portal page       : benchmarks/output/fig2_record.html",
        ],
        output_dir,
    )


def test_fig2_emd_lazy_read(emd_file):
    """The flow reads the cube once from the container; check the EMD
    read path the analysis function depends on."""
    path, *_ = emd_file
    with read_emd(path) as f:
        cube = f.signal().data.read()
    assert cube.shape == (128, 128, 1024)
