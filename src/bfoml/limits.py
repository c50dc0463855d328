"""The work budget that both solvers spend, and its defaults."""

from __future__ import annotations

import os

from .errors import BfomlError, ResourceLimitError

DEFAULT_BUDGET = 2_000_000


def require_at_least_one(name: str, value: int) -> None:
    """Raise BfomlError unless the bound called name is at least 1."""
    if value < 1:
        raise BfomlError(f"{name} must be at least 1, got {value}")


def resolve_budget(budget: int | None) -> int:
    """An explicit budget as given; else BFOML_BUDGET when set, else the default.

    An explicit budget below 1, or a BFOML_BUDGET that is not an integer of
    at least 1, raises BfomlError.
    """
    if budget is not None:
        require_at_least_one("budget", budget)
        return budget
    raw = os.environ.get("BFOML_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise BfomlError(f"BFOML_BUDGET must be an integer, got {raw!r}") from None
    require_at_least_one("BFOML_BUDGET", value)
    return value


class Budget:
    """Work ``spent`` against a limit resolved as resolve_budget does; spending
    past the limit raises ResourceLimitError(message).  A budget can only stop
    a search, never change the verdict or model it would reach."""

    __slots__ = ("limit", "message", "spent")

    def __init__(self, limit: int | None, message: str):
        self.limit = resolve_budget(limit)
        self.message = message
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise ResourceLimitError(self.message)
