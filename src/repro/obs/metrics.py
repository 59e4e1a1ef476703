"""Sim-time metrics: counters, gauges, and time-bucketed histograms.

Instruments are registered by name at service construction and updated
on the hot path; like the tracer, every timestamp comes from
``Environment.now`` so a metrics dump is deterministic under a seed.
The disabled path (:data:`NULL_METRICS`) hands out shared no-op
instruments, so services may update unconditionally.

* :class:`Counter` — monotonically increasing total (polls issued,
  retries, bytes moved).
* :class:`Gauge` — instantaneous level sampled on every ``set``
  (active streams, node occupancy, queue depth); the full ``(t, v)``
  series is retained for export.
* :class:`Histogram` — values aggregated per one-minute sim-time
  bucket (count/sum/min/max), e.g. per-minute queue-wait statistics.

Fault-path instruments (retries, NAKs, chaos injections) are fetched
from the registry where they fire, so they enter an export the first
time they fire and a clean run's export holds none of them.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..sim import Environment

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullInstrument",
    "NullMetricsRegistry",
    "NULL_METRICS",
]


class Counter:
    """Monotonic event count (optionally weighted)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """Instantaneous level; retains the sampled time series."""

    __slots__ = ("name", "value", "samples", "_env")

    kind = "gauge"

    def __init__(self, name: str, env: Environment) -> None:
        self.name = name
        self.value = 0.0
        self.samples: list[tuple[float, float]] = []
        self._env = env

    def set(self, value: float) -> None:
        self.value = float(value)
        self.samples.append((self._env.now, self.value))

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Values aggregated into fixed-width simulation-time buckets."""

    __slots__ = ("name", "buckets", "_env")

    kind = "histogram"
    #: Width of every histogram's sim-time buckets, in seconds.
    bucket_s = 60.0

    def __init__(self, name: str, env: Environment) -> None:
        self.name = name
        #: bucket index -> [count, sum, min, max]
        self.buckets: dict[int, list[float]] = {}
        self._env = env

    def observe(self, value: float) -> None:
        value = float(value)
        idx = int(self._env.now // self.bucket_s)
        agg = self.buckets.get(idx)
        if agg is None:
            self.buckets[idx] = [1.0, value, value, value]
        else:
            agg[0] += 1.0
            agg[1] += value
            agg[2] = min(agg[2], value)
            agg[3] = max(agg[3], value)

    @property
    def count(self) -> int:
        return int(sum(agg[0] for agg in self.buckets.values()))

    @property
    def total(self) -> float:
        return sum(agg[1] for agg in self.buckets.values())


class MetricsRegistry:
    """Named instruments bound to one environment.

    Lookups are idempotent: asking twice for the same name returns the
    same instrument (so layered services can share counters), but asking
    for the same name with a different kind is an error.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind: str, factory):
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
            return inst
        if inst.kind != kind:
            raise SimulationError(
                f"metric {name!r} already registered as {inst.kind}, not {kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, self.env))

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram", lambda: Histogram(name, self.env))

    def instruments(self) -> list:
        """All instruments sorted by name (stable export order)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)


class NullInstrument:
    """Absorbs every update; shared by all disabled instruments."""

    __slots__ = ()

    kind = "null"
    name = ""
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = NullInstrument()


class NullMetricsRegistry:
    """The disabled registry: every lookup returns the shared no-op."""

    __slots__ = ()

    def counter(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


NULL_METRICS = NullMetricsRegistry()
