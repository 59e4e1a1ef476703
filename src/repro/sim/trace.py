"""Step-level event tracing for bit-identity verification.

:class:`EventTraceRecorder` attaches a dispatch hook to the kernel's one
drain loop and records one line per processed event — ``(time,
priority, event type)`` at full ``repr`` float precision.  Two runs of
the same model are *bit-identical* exactly when their recorded traces
are byte-identical: any change in event ordering, count, timing, or
kind shows up as a trace diff.

This is the measurement behind the golden-trace equivalence suite
(``tests/test_golden_traces.py``): traces recorded on a previous
implementation are checked into the repository, and the optimized kernel
and fabric must reproduce them exactly, under both the ``fifo`` and
``lifo`` same-tick tie-breaks.

The recorder deliberately captures the event's *type name*, not its
``repr()`` — reprs embed ``id()`` addresses that differ between
processes and would defeat byte comparison.
"""

from __future__ import annotations

import hashlib

from .core import Environment, Event

__all__ = ["EventTraceRecorder"]


class EventTraceRecorder:
    """Record every dispatched event of an :class:`Environment`.

    The recorder is a dispatch hook on the same loop an untraced run
    uses, so recording never changes *what* is dispatched or in which
    order — it only adds one call per event.  Attach before the first
    ``run()``; it stays attached for the environment's lifetime::

        env = Environment()
        rec = EventTraceRecorder(env)
        ...
        env.run()
        rec.lines  # ["0.0 0 Initialize", "1.0 1 Timeout", ...]
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.lines: list[str] = []
        env._hooks += (self._on_dispatch,)

    def _on_dispatch(self, now: float, priority: int, event: Event) -> None:
        self.lines.append(f"{now!r} {priority} {type(event).__name__}")

    @property
    def text(self) -> str:
        """The full trace as one newline-joined string."""
        return "\n".join(self.lines)

    def sha256(self) -> str:
        """Digest of the trace text — a compact bit-identity fingerprint."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EventTraceRecorder {len(self.lines)} events>"
