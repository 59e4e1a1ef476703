"""Fault injection for the transfer service.

Globus Transfer's headline feature is *reliability*: checksums per file
and automatic retry of faulted transfers.  To exercise those code paths
(and to let the fault-tolerance example show recovery), the service
consults a :class:`FaultPlan` that can inject two failure modes:

* **transient faults** — the data channel drops mid-transfer; the service
  retries from the start of the file (the conservative model);
* **corruption** — all bytes arrive but the destination checksum
  mismatches; the service discards and retransmits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import TransferError

__all__ = ["FaultPlan", "NO_FAULTS"]


@dataclass(frozen=True)
class FaultPlan:
    """Per-attempt fault probabilities (independent draws)."""

    transient_prob: float = 0.0
    corrupt_prob: float = 0.0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        for name in ("transient_prob", "corrupt_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise TransferError(f"{name} must be a probability, got {v}")
        total = self.transient_prob + self.corrupt_prob
        if total > 1.0:
            # The single-uniform draw partitions [0, 1); a sum above 1
            # would silently truncate the corrupt region rather than
            # model what the caller asked for.
            raise TransferError(
                "transient_prob + corrupt_prob must not exceed 1, got "
                f"{self.transient_prob} + {self.corrupt_prob} = {total}"
            )
        if not (isinstance(self.max_attempts, numbers.Integral) and self.max_attempts >= 1):
            raise TransferError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )

    def draw(self, rng: np.random.Generator) -> "str | None":
        """``None`` (clean), ``"transient"`` or ``"corrupt"`` for one attempt."""
        u = rng.random()
        if u < self.transient_prob:
            return "transient"
        if u < self.transient_prob + self.corrupt_prob:
            return "corrupt"
        return None


NO_FAULTS = FaultPlan()
