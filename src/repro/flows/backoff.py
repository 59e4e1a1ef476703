"""Polling backoff policies.

The paper attributes its flow-orchestration overhead (49.2% of median
hyperspectral runtime, 21.1% spatiotemporal) to "an exponential polling
backoff policy that starts at 1 second and doubles up to 10 minutes".
:class:`ExponentialBackoff` is that policy; the executor restarts it for
each action (each flow step), as Globus Flows does.  Constant polling is
the same policy with ``factor=1`` and ``max_interval=initial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..errors import FlowError

__all__ = ["ExponentialBackoff", "PAPER_BACKOFF"]


@dataclass(frozen=True)
class ExponentialBackoff:
    """Intervals ``initial * factor**k`` capped at ``max_interval``.

    ``jitter`` spreads each interval uniformly over
    ``[interval * (1 - jitter), interval * (1 + jitter)]`` using the RNG
    stream passed to :meth:`intervals` — so retry storms across
    concurrent flow runs desynchronize while staying deterministic under
    the campaign seed.  With ``jitter=0`` (the default) no draw is made
    and the interval sequence is bit-identical to the unjittered policy.
    """

    initial: float = 1.0
    factor: float = 2.0
    max_interval: float = 600.0  # ten minutes
    jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("initial", "factor", "max_interval"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FlowError(f"{name} must be finite, got {value}")
        if self.initial <= 0:
            raise FlowError(f"initial interval must be positive, got {self.initial}")
        if self.factor < 1.0:
            raise FlowError(f"factor must be >= 1, got {self.factor}")
        if self.max_interval < self.initial:
            raise FlowError("max_interval must be >= initial")
        if not 0.0 <= self.jitter < 1.0:
            raise FlowError(f"jitter must be in [0, 1), got {self.jitter}")

    def intervals(self, rng: Optional[Any] = None) -> Iterator[float]:
        """Infinite stream of wait intervals.

        ``rng`` (a :class:`numpy.random.Generator`) is required when
        ``jitter > 0``; it is untouched when ``jitter == 0``.
        """
        if self.jitter > 0.0 and rng is None:
            raise FlowError("jittered backoff requires an RNG stream")
        current = self.initial
        while True:
            if self.jitter > 0.0:
                spread = float(rng.uniform(-self.jitter, self.jitter))
                yield current * (1.0 + spread)
            else:
                yield current
            current = min(current * self.factor, self.max_interval)


#: The policy described in Sec. 3.3.
PAPER_BACKOFF = ExponentialBackoff(initial=1.0, factor=2.0, max_interval=600.0)
