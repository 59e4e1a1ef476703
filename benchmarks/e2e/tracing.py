"""Host-side measurement for the end-to-end benchmark.

Everything here observes the program from outside: spans are opened by
the benchmark around its own calls into ``repro``, and self time comes
from :mod:`cProfile`.  Nothing inside the simulation reads the wall
clock, so the determinism rules the package lints for still hold.

* :class:`HostSpans` records one span per op and one per layer call
  (name, start, end, parent) in memory and exports them as Chrome
  ``trace_event`` JSON; :data:`NULL_SPANS` is the untraced stand-in.
* :func:`layer_self_shares` charges every profiled frame's self time to
  a ``repro`` subpackage.  A stdlib or builtin frame is charged to the
  subpackages that called it, following the profile's caller edges, so
  the shares add up to 100%.
* :class:`CalibrationProbe` is a fixed unit of host work, timed next to
  every op so op time can be expressed relative to how fast the host
  is at that moment.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import zlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Iterator, Optional

import numpy as np

__all__ = [
    "CalibrationProbe", "HostSpans", "NULL_SPANS", "layer_self_shares", "median_or_zero",
]


class CalibrationProbe:
    """About 6 ms of fixed work that uses no ``repro`` code: a pure-Python
    loop, a numpy sort, a zlib round trip and an 8 MB memory copy, the
    kinds of work the workloads do.

    A host shared with other tenants swings in speed by tens of percent
    for seconds at a time.  An op's wall time divided by the mean of the
    probes just before and after it cancels most of that swing; because
    the probe never calls into ``repro``, a change to the program still
    moves the ratio in full.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sortable = rng.standard_normal(1 << 17)
        self._blob = np.cumsum(rng.integers(-2, 3, 48 << 10)).astype(np.int16).tobytes()
        self._big = rng.standard_normal(1 << 20)
        self._copy = np.empty_like(self._big)

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        np.sort(self._sortable)
        zlib.decompress(zlib.compress(self._blob, 4))
        np.copyto(self._copy, self._big)
        np.copyto(self._big, self._copy)
        return perf_counter() - t0


class _NullSpans:
    """Span recorder for untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def __call__(self, name: str) -> contextlib.AbstractContextManager:
        return self._null


NULL_SPANS = _NullSpans()


class HostSpans:
    """Wall-clock spans recorded around the benchmark's calls.

    ``spans.op(k)`` opens the root span of op ``k``; ``spans(name)``
    opens a child of whichever span is innermost.  Spans stay in memory
    until :meth:`chrome_trace` exports them.
    """

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op number)
        self.records: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, perf_counter(), 0.0, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec = self.records[idx]
            self.records[idx] = (rec[0], rec[1], perf_counter(), rec[3], rec[4])

    def op(self, k: int) -> contextlib.AbstractContextManager:
        self._op = k
        return self("op")

    def per_op(self) -> list[tuple[float, dict[str, float], float]]:
        """For each op: (wall, busy seconds per span name, seconds
        covered by the op's direct children)."""
        ops: dict[int, list[Any]] = {}
        for i, (name, start, end, parent, k) in enumerate(self.records):
            if name == "op":
                ops[i] = [end - start, defaultdict(float), 0.0]
        for name, start, end, parent, k in self.records:
            if name == "op":
                continue
            root = parent
            while self.records[root][0] != "op":
                root = self.records[root][3]
            ops[root][1][name] += end - start
            if parent == root:
                ops[root][2] += end - start
        return [(wall, dict(busy), covered) for wall, busy, covered in ops.values()]

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome ``trace_event`` JSON (complete events)."""
        if not self.records:
            return {"traceEvents": []}
        t0 = self.records[0][1]
        events = []
        for i, (name, start, end, parent, k) in enumerate(self.records):
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": os.getpid(),
                    "tid": 1,
                    "args": {"span": i, "parent": parent, "op": k},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_of(filename: str, pkg_dir: str) -> Optional[str]:
    """``repro`` subpackage (or top-level module) owning a source file;
    None for a file outside the package."""
    if not filename.startswith(pkg_dir):
        return None
    head, sep, _ = filename[len(pkg_dir):].partition(os.sep)
    return head if sep else os.path.splitext(head)[0]


def layer_self_shares(stats: dict, pkg_dir: str, layers: tuple[str, ...]) -> dict[str, float]:
    """Percent of profiled self time per layer (``layers`` plus ``other``).

    ``stats`` is :attr:`pstats.Stats.stats`: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``callers[caller] = (cc, nc, tt, ct)`` per edge.  A
    non-repro function inherits its callers' owners, weighted by the
    cumulative time of each caller edge; recursion edges are skipped.
    """
    pkg_dir = os.path.abspath(pkg_dir) + os.sep
    known = set(layers)
    owners: dict[Any, dict[str, float]] = {}

    def owner(func: Any, visiting: frozenset) -> dict[str, float]:
        if func in owners:
            return owners[func]
        layer = _layer_of(func[0], pkg_dir)
        if layer is not None:
            result = {layer if layer in known else "other": 1.0}
            owners[func] = result
            return result
        acc: dict[str, float] = defaultdict(float)
        total = 0.0
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        for caller, edge in callers.items():
            if caller == func or caller in visiting:
                continue
            weight = edge[3] or edge[2] or float(edge[1])
            if weight <= 0:
                continue
            for name, frac in owner(caller, visiting | {func}).items():
                acc[name] += weight * frac
            total += weight
        result = {k: v / total for k, v in acc.items()} if total > 0 else {"other": 1.0}
        if not visiting:
            # Only a resolution made without a cycle cut is final.
            owners[func] = result
        return result

    shares: dict[str, float] = {name: 0.0 for name in layers}
    shares["other"] = 0.0
    grand = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        grand += tt
        for name, frac in owner(func, frozenset()).items():
            shares[name] += tt * frac
    if grand <= 0:
        return shares
    return {name: 100.0 * v / grand for name, v in shares.items()}
