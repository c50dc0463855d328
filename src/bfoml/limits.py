"""Work-budget defaults shared by the solvers and the CLI."""

from __future__ import annotations

import os

from .errors import BfomlError

DEFAULT_BUDGET = 2_000_000


def resolve_budget(budget: int | None) -> int:
    """An explicit budget as given; else BFOML_BUDGET when set, else the default.

    A BFOML_BUDGET that is not an integer of at least 1 raises BfomlError.
    """
    if budget is not None:
        return budget
    raw = os.environ.get("BFOML_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise BfomlError(f"BFOML_BUDGET must be an integer, got {raw!r}") from None
    if value < 1:
        raise BfomlError(f"BFOML_BUDGET must be at least 1, got {value}")
    return value
