"""Deterministic fault injection for campaign-scale chaos testing.

The subsystem has three layers:

* :mod:`repro.chaos.plan` — frozen fault declarations
  (:class:`ChaosPlan` and its parts) with :data:`NO_CHAOS` as the
  inject-nothing default;
* :mod:`repro.chaos.gate` — the outage gate services hold duck-typed;
* :mod:`repro.chaos.controller` — arms a plan against a live testbed
  and reports what recovered.

:mod:`repro.chaos.scenarios` ships named, campaign-sized plans;
``run_campaign(..., chaos=name)`` runs one.
"""

from .controller import ChaosController
from .corruption import ChunkCorruptor
from .gate import ServiceGate
from .plan import (
    CHAOS_SERVICES,
    BitRotWindow,
    ChaosPlan,
    DataCorruptionSpec,
    LinkDegradation,
    NO_CHAOS,
    NodeFailureSpec,
    OutageWindow,
    WatcherCrash,
)
from .scenarios import SCENARIOS, delivery_breakdown, run_chaos_campaign, scenario

__all__ = [
    "CHAOS_SERVICES",
    "BitRotWindow",
    "ChaosController",
    "ChaosPlan",
    "ChunkCorruptor",
    "DataCorruptionSpec",
    "LinkDegradation",
    "NO_CHAOS",
    "NodeFailureSpec",
    "OutageWindow",
    "SCENARIOS",
    "ServiceGate",
    "WatcherCrash",
    "delivery_breakdown",
    "run_chaos_campaign",
    "scenario",
]
