"""PicoProbe DataFlow — reproduction of "Linking the Dynamic PicoProbe
Analytical Electron-Optical Beam Line / Microscope to Supercomputers"
(SC 2023 workshops).

The package implements the paper's instrument-to-HPC data-flow
infrastructure and every substrate it depends on, from scratch:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.emd` — EMD / h5lite scientific container format;
* :mod:`repro.instrument` — the simulated Dynamic PicoProbe;
* :mod:`repro.net`, :mod:`repro.transfer` — max-min-fair network fabric
  and the Globus-Transfer-style mover;
* :mod:`repro.compute` — Globus-Compute-style function serving over a
  PBS-like batch scheduler;
* :mod:`repro.flows` — Globus-Flows/Gladier-style orchestration with
  the paper's exponential polling backoff;
* :mod:`repro.search`, :mod:`repro.portal` — Globus-Search-style index
  and the DGPF-style data portal;
* :mod:`repro.watcher` — the watchdog-style trigger app substrate;
* :mod:`repro.analysis` — hyperspectral reductions, EMD→video
  conversion, nanoparticle detection/tracking, and the real-file
  pipelines built on them;
* :mod:`repro.core` — the paper's flows, campaigns, and statistics;
* :mod:`repro.testbed` — the calibrated Argonne-like world.

The package re-exports the six campaign names of ``__all__`` and
imports only what a campaign runs: import a subpackage to use it.  A
campaign loads neither :mod:`repro.analysis` (nor, with it, scipy) nor
:mod:`repro.lint`.

Quickstart::

    from repro.core import run_campaign, render_table1
    hyper = run_campaign("hyperspectral", seed=1)
    print(render_table1([hyper.table1()]))
"""

from .core import CampaignResult, render_table1, run_campaign
from .testbed import Calibration, Testbed, build_testbed

__version__ = "1.0.0"

__all__ = [
    "run_campaign",
    "render_table1",
    "CampaignResult",
    "build_testbed",
    "Testbed",
    "Calibration",
    "__version__",
]
