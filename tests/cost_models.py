"""Cost models for functions the tests register with the compute service."""

from __future__ import annotations


def constant_cost(seconds: float):
    """A cost model that charges a fixed duration per invocation."""

    def model(args: tuple, kwargs: dict) -> float:
        return float(seconds)

    return model
