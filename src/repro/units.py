"""Physical quantities used throughout the simulator.

All internal APIs exchange plain floats in **base units** — bytes, seconds,
bytes/second — so hot paths never pay object overhead (see the optimization
guide: measure first, keep inner loops on scalars/arrays).  This module
provides named constructors and formatters so call sites stay legible:

    >>> from repro.units import MB, Gbps, format_bytes
    >>> MB(91)
    91000000.0
    >>> Gbps(1)
    125000000.0
    >>> format_bytes(MB(1200))
    '1.20 GB'

Decimal (SI) prefixes are used for file sizes and link rates, matching how
the paper reports them (91 MB, 1200 MB, 1 Gbps, 6.42 GB).
"""

from __future__ import annotations

__all__ = ["MB", "Gbps", "minutes", "hours", "format_bytes", "format_duration"]

_KB = 1e3
_MB = 1e6
_GB = 1e9
_TB = 1e12


def MB(n: float) -> float:
    """``n`` megabytes in bytes (decimal)."""
    return float(n) * _MB


def Gbps(n: float) -> float:
    """``n`` gigabits/second as bytes/second."""
    return float(n) * _GB / 8.0


def minutes(n: float) -> float:
    """``n`` minutes in seconds."""
    return float(n) * 60.0


def hours(n: float) -> float:
    """``n`` hours in seconds."""
    return float(n) * 3600.0


def format_bytes(n: float) -> str:
    """Human-readable decimal byte count: ``format_bytes(6.42e9) == '6.42 GB'``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, factor in (("TB", _TB), ("GB", _GB), ("MB", _MB), ("kB", _KB)):
        if n >= factor:
            return f"{sign}{n / factor:.2f} {unit}"
    return f"{sign}{n:.0f} B"


def format_duration(secs: float) -> str:
    """Compact ``h:mm:ss`` / ``m:ss`` / ``s`` rendering of a duration."""
    secs = float(secs)
    sign = "-" if secs < 0 else ""
    secs = abs(secs)
    if secs < 60:
        return f"{sign}{secs:.1f}s"
    m, s = divmod(int(round(secs)), 60)
    if m < 60:
        return f"{sign}{m}m{s:02d}s"
    h, m = divmod(m, 60)
    return f"{sign}{h}h{m:02d}m{s:02d}s"
