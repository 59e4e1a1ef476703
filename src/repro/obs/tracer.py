"""DES-native span tracing.

A *span* is a named interval of simulated time with optional attributes
and an optional parent, exactly the OpenTelemetry shape but timestamped
from ``Environment.now`` only — the tracer never reads the wall clock,
so enabling it adds zero nondeterminism and a traced campaign replays
byte-identically under a seed.

Two implementations share the interface:

* :class:`SimTracer` records every span in creation order (span ids are
  a deterministic counter, so exports are stable across runs);
* :class:`NullTracer` is the disabled path: :meth:`NullTracer.start`
  returns the singleton :data:`NULL_SPAN` whose methods are no-ops —
  no allocation, no bookkeeping, nothing retained.

Instrumented services take an :class:`~repro.obs.Observability` bundle
as ``obs=`` and default to :data:`~repro.obs.NULL_OBS`, whose tracer is
:data:`NULL_TRACER`, so tracing is free unless a campaign opts in.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..sim import Environment

__all__ = ["Span", "SimTracer", "NullSpan", "NullTracer", "NULL_SPAN", "NULL_TRACER"]


class Span:
    """One named interval of simulated time."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        tracer: "SimTracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = {}

    # -- recording ---------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        """Attach an attribute (chainable)."""
        self.attrs[key] = value
        return self

    def finish(self) -> "Span":
        """Stamp the span's end at the current simulation time.

        Finishing twice keeps the first end time (spans are immutable
        once closed, so error paths may finish defensively).
        """
        if self.end is None:
            self.end = self.tracer.env.now
        return self

    # -- inspection --------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.start:.6g}..{self.end:.6g}" if self.ended else f"{self.start:.6g}.."
        return f"<Span #{self.span_id} {self.name!r} {state}>"


class SimTracer:
    """Records spans against an environment's simulation clock."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._spans: list[Span] = []
        self._ids = itertools.count(1)

    def start(self, name: str, parent: "Span | NullSpan | None" = None) -> Span:
        """Open a span at ``env.now``; ``parent`` may be a real span,
        :data:`NULL_SPAN`, or None (a root)."""
        parent_id = parent.span_id if isinstance(parent, Span) else None
        span = Span(self, next(self._ids), parent_id, name, self.env.now)
        self._spans.append(span)
        return span

    @property
    def spans(self) -> list[Span]:
        """All spans in creation (= span id) order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


class NullSpan:
    """The do-nothing span: every operation returns immediately."""

    __slots__ = ()

    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    end = None
    attrs: dict[str, Any] = {}

    def set(self, key: str, value: Any) -> "NullSpan":
        return self

    def finish(self) -> "NullSpan":
        return self

    @property
    def ended(self) -> bool:
        # True so "close if still open" guards are no-ops on the
        # disabled path.
        return True

    @property
    def duration(self) -> Optional[float]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullSpan>"


NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN`, keeps nothing."""

    __slots__ = ()

    def start(self, name: str, parent: Any = None) -> NullSpan:
        return NULL_SPAN

    @property
    def spans(self) -> list[Span]:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
