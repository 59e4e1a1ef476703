"""Tests for unit constructors and formatters."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


def test_decimal_sizes():
    assert units.MB(91) == 91e6
    assert units.MB(1200) == 1.2e9


def test_rates_convert_bits_to_bytes():
    assert units.Gbps(1) == 125e6
    assert units.Gbps(0.2) == 25e6


def test_durations():
    assert units.minutes(2) == 120.0
    assert units.hours(1) == 3600.0


def test_format_bytes():
    assert units.format_bytes(6.42e9) == "6.42 GB"
    assert units.format_bytes(units.MB(91)) == "91.00 MB"
    assert units.format_bytes(512) == "512 B"
    assert units.format_bytes(-units.MB(1)) == "-1.00 MB"


def test_format_duration():
    assert units.format_duration(12.34) == "12.3s"
    assert units.format_duration(75) == "1m15s"
    assert units.format_duration(3661) == "1h01m01s"
    assert units.format_duration(-30) == "-30.0s"


@given(st.floats(min_value=0, max_value=1e15, allow_nan=False))
def test_format_bytes_total(n):
    """Formatter never crashes and always returns a unit suffix."""
    s = units.format_bytes(n)
    assert any(s.endswith(u) for u in ("B", "kB", "MB", "GB", "TB"))


@given(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
def test_size_roundtrip_mb(n):
    assert units.MB(n) / 1e6 == pytest.approx(n)
