"""The rule catalog.

Importing this package registers every rule with the analyzer's global
registry.  Seven packs, id-spaced by concern:

* ``D1xx`` — determinism under a seed (:mod:`.determinism`)
* ``S2xx`` — DES kernel safety (:mod:`.des_safety`)
* ``F3xx`` — provider names in flow states (:mod:`.flowdef`)
* ``F4xx`` — whole-flow payload dataflow (:mod:`.dataflow`) and
  fault-path resilience (:mod:`.resilience`)
* ``R5xx`` — resource lifecycle over the CFG/call-graph engine
  (:mod:`.lifecycle`)
* ``P6xx`` — hot-path performance candidates (:mod:`.hotpath`)
* ``N7xx`` — interprocedural ordering/host taint flows
  (:mod:`.ordering`, over :mod:`repro.lint.taint`)
"""

from __future__ import annotations

from . import (  # noqa: F401  (registration)
    dataflow,
    des_safety,
    determinism,
    flowdef,
    hotpath,
    lifecycle,
    ordering,
    resilience,
)
from .dataflow import (
    DanglingPayloadReference,
    PayloadTypeConflict,
    UndeclaredParameter,
    UndeclaredProviderSchema,
)
from .des_safety import SwallowedSimError, YieldNonEvent
from .determinism import (
    EnvVarRead,
    GlobalRandom,
    LegacyNumpyRandom,
    WallClockCall,
    WallSleep,
)
from .flowdef import UnknownProvider
from .hotpath import HotpathAllocation, InvariantLoopLookup, PerElementArrayLoop
from .lifecycle import (
    HeldRequestAcrossYield,
    LeakedScheduledEvent,
    SpanLeak,
    TempFileLeak,
)
from .ordering import (
    IdentityOrderDependence,
    LaunderedHostRead,
    OrderTaintedSchedule,
    UnorderedCompletionMerge,
    UnorderedFloatAccumulation,
)
from .resilience import SwallowedFaultSignal

__all__ = [
    "WallClockCall",
    "WallSleep",
    "GlobalRandom",
    "LegacyNumpyRandom",
    "EnvVarRead",
    "YieldNonEvent",
    "SwallowedSimError",
    "UnknownProvider",
    "DanglingPayloadReference",
    "UndeclaredParameter",
    "PayloadTypeConflict",
    "UndeclaredProviderSchema",
    "SwallowedFaultSignal",
    "LeakedScheduledEvent",
    "SpanLeak",
    "TempFileLeak",
    "HeldRequestAcrossYield",
    "HotpathAllocation",
    "PerElementArrayLoop",
    "InvariantLoopLookup",
    "OrderTaintedSchedule",
    "UnorderedCompletionMerge",
    "UnorderedFloatAccumulation",
    "IdentityOrderDependence",
    "LaunderedHostRead",
]
