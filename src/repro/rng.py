"""Deterministic random-number streams.

Every stochastic component (instrument noise, service-latency jitter, fault
injection) draws from its **own named stream** derived from a single campaign
seed, so adding a new consumer never perturbs the draws seen by existing
ones.  Streams are NumPy :class:`~numpy.random.Generator` objects seeded via
:class:`~numpy.random.SeedSequence` spawning keyed on a stable hash of the
stream name.
"""

from __future__ import annotations

import numbers
import zlib

import numpy as np

from .errors import ConfigError

__all__ = ["RngRegistry", "lognormal_from_median"]


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (process-independent, unlike
    builtin ``hash``)."""
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """A family of independent, reproducible random streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("transfer.jitter")
    >>> b = rngs.stream("instrument.noise")
    >>> a is rngs.stream("transfer.jitter")   # memoized
    True

    Two registries built with the same seed produce identical streams for
    identical names regardless of creation order.  The seed must be a
    non-negative integer (:class:`~repro.errors.ConfigError` otherwise),
    so a bad seed fails here rather than at the first draw.
    """

    def __init__(self, seed: int = 0) -> None:
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoized) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_name_key(name),))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen


def lognormal_from_median(rng: np.random.Generator, median: float, sigma: float) -> float:
    """Draw a lognormal variate parameterized by its **median** (not its
    underlying mu), which is how service latencies are calibrated from the
    paper's reported medians.

    ``sigma`` is the shape parameter of the underlying normal; ``sigma=0``
    returns ``median`` exactly.
    """
    if median < 0:
        raise ValueError(f"median must be >= 0, got {median}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if median == 0 or sigma == 0:
        return float(median)
    return float(median * np.exp(rng.normal(0.0, sigma)))
