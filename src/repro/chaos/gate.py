"""Outage gates installed on cloud services by the chaos controller.

A :class:`ServiceGate` is the duck-typed object behind each service's
``gate`` attribute (``TransferService.gate``, ``ComputeService.gate``,
``SearchService.gate``): services call ``gate.check(env.now)`` at their
API entry points and never import this module, so the chaos subsystem
stays an optional layer with no import cycle into the substrate.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ServiceUnavailable
from .plan import OutageWindow

__all__ = ["ServiceGate"]


class ServiceGate:
    """Time-windowed availability for one cloud service.

    ``check(now)`` raises :class:`~repro.errors.ServiceUnavailable`
    (carrying the connect timeout the caller must burn) whenever ``now``
    falls inside an outage window; outside every window it is a no-op.
    """

    def __init__(
        self,
        service: str,
        windows: "tuple[OutageWindow, ...] | list[OutageWindow]",
        connect_timeout_s: float = 15.0,
    ) -> None:
        self.service = service
        self.windows = tuple(sorted(windows, key=lambda w: w.start_s))
        self.connect_timeout_s = float(connect_timeout_s)
        #: Calls rejected by this gate (deterministic under seed).
        self.rejections = 0

    def window_at(self, now: float) -> Optional[OutageWindow]:
        for w in self.windows:
            if w.covers(now):
                return w
        return None

    def down(self, now: float) -> bool:
        return self.window_at(now) is not None

    def check(self, now: float) -> None:
        w = self.window_at(now)
        if w is None:
            return
        self.rejections += 1
        raise ServiceUnavailable(
            f"{self.service} service unavailable "
            f"(outage until t={w.end_s:.1f}s)",
            connect_timeout_s=self.connect_timeout_s,
        )
