"""Errors shared across the package."""
from __future__ import annotations


class ResourceBudgetError(RuntimeError):
    """An operation would exceed its memory or enumeration budget.

    The offending requirement is reported so callers can either raise the
    budget or shrink the problem. Both stay exact; the message writes one
    past 20 digits as ≈ 2^b, as str() refuses ints past 4,300 digits.
    """

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None) -> None:
        if required is not None and budget is not None:
            from math import log2

            need, cap = (n if n < 10**20 else f"≈ 2^{log2(n):.1f}" for n in (required, budget))
            message = f"{message} (required {need}, budget {cap})"
        super().__init__(message)
        self.required = required
        self.budget = budget


class NoRepresentationError(RuntimeError):
    """A decomposition request has no representation within its term cap."""
