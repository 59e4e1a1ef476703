"""Function registry for the federated compute service.

Globus Compute executes *registered functions*: a client registers a
Python function body and later submits invocations by function id.  Our
registry keeps that model, with one simulation twist: each function
carries a **cost model** mapping its arguments to charged compute
seconds.  The callable itself really runs (producing real metadata
documents, plots, detection results); the cost model decides how long
the node is occupied in simulated time — including data-dependent terms
like "conversion time proportional to tensor bytes", which is what makes
the Fig. 4 compute-phase breakdown mechanistic rather than curve-fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import FunctionNotRegistered

__all__ = ["RegisteredFunction", "FunctionRegistry"]

CostModel = Callable[[tuple, dict], float]


@dataclass(frozen=True)
class RegisteredFunction:
    """A function registered with the compute service."""

    function_id: str
    name: str
    fn: Callable[..., Any]
    cost_model: CostModel

    def charge(self, args: tuple, kwargs: dict) -> float:
        cost = float(self.cost_model(args, kwargs))
        if cost < 0:
            raise ValueError(f"cost model for {self.name!r} returned {cost}")
        return cost


class FunctionRegistry:
    """Id-addressed store of registered functions."""

    def __init__(self) -> None:
        self._functions: dict[str, RegisteredFunction] = {}
        self._ids = itertools.count(1)

    def register(
        self,
        fn: Callable[..., Any],
        cost_model: CostModel,
        name: Optional[str] = None,
    ) -> str:
        """Register ``fn`` with its cost model; returns its function id."""
        func_id = f"func-{next(self._ids):04d}"
        self._functions[func_id] = RegisteredFunction(
            function_id=func_id,
            name=name or getattr(fn, "__name__", "anonymous"),
            fn=fn,
            cost_model=cost_model,
        )
        return func_id

    def get(self, function_id: str) -> RegisteredFunction:
        try:
            return self._functions[function_id]
        except KeyError:
            raise FunctionNotRegistered(
                f"unknown function id: {function_id!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._functions)
