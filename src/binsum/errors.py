"""Errors shared across the package."""
from __future__ import annotations

from math import log2


def _charge_text(message: str, base: int, power: int, budget: int) -> str:
    """message with the charge base**power against budget, each number exact
    below 10**20, else ≈ 2^b with b = power * log2(base): no power past
    2**(67 + power) is built, and str() refuses ints past 4,300 digits."""
    need, cap = (str(n**p) if p * (n.bit_length() - 1) < 67 and n**p < 10**20
                 else f"≈ 2^{p * log2(n):.1f}" for n, p in ((base, power), (budget, 1)))
    return f"{message} (required {need}, budget {cap})"


class ResourceBudgetError(RuntimeError):
    """An operation would exceed its memory or enumeration budget.

    The offending requirement is reported so callers can either raise the
    budget or shrink the problem. Both stay exact; the message writes one
    past 20 digits as ≈ 2^b (see _charge_text).
    """

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None) -> None:
        if required is not None and budget is not None:
            message = _charge_text(message, required, 1, budget)
        super().__init__(message)
        self.required = required
        self.budget = budget


class NoRepresentationError(RuntimeError):
    """A decomposition request has no representation within its term cap."""
