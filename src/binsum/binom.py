"""Exact arithmetic for the increasing sequences C(n, k) and n**k.

Everything here is integer exact. Python ints are arbitrary precision, so
no magnitude can overflow. Floats appear in the diagnostic ratio helper
and as floor_index's starting estimate, which exact binom steps correct;
no float decides a result.
"""
from __future__ import annotations

import math

__all__ = [
    "binom",
    "floor_index",
    "count_upto",
    "asymptotic_ratio",
    "gap",
    "IncreasingSequence",
    "BinomialSequence",
    "PowerSequence",
    "SEQUENCES",
]

# floor_index takes a float k-th root while k! * bound has at most this
# many bits per order, so the root (below 2**40) is off by far less than 1.
_FLOAT_ROOT_BITS = 40

# _binom_array's partial products stay in int64 while top ** k is below this.
_INT64_LIMIT = 2**62


def _require_order(k: int) -> None:
    if k < 1:
        raise ValueError(f"order must be k >= 1, got k={k}")


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exactly.

    Computed as the falling-factorial product n(n-1)...(n-k+1) with division
    interleaved after each factor, so every intermediate value is an integer.
    No floats and no full factorials. Returns 0 for n < k; k = 0 gives 1.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binom requires n >= 0 and k >= 0, got n={n}, k={k}")
    if k == 0 or k == n:
        return 1
    if n < k:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        # out * (n - i + 1) is a product of i consecutive integers times a
        # binomial coefficient, hence divisible by i.
        out = out * (n - i + 1) // i
    return out


def _binom_array(n, k: int):
    """C(n, k) for every entry of an int64 numpy array n >= 0, exactly, by
    binom's falling product; the caller keeps n ** k below _INT64_LIMIT."""
    out = n
    for i in range(2, k + 1):
        out = out * (n - (i - 1)) // i
    return out


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, exactly: Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def floor_index(k: int, bound: int) -> int:
    """Largest n with C(n, k) <= bound, for k >= 1 and bound >= 1.

    bound >= 1 guarantees n = k qualifies. Orders 1 and 2 have closed forms;
    order 2's is exact, since n(n-1)/2 <= bound iff 2n - 1 <= sqrt(8 bound + 1)
    and floor((1 + isqrt(m)) / 2) = floor((1 + sqrt(m)) / 2).
    Higher orders start from (k! bound) ** (1/k) + (k - 1) / 2, which AM-GM
    puts below the answer plus one and close to it, and correct it with
    exact binom steps. The root is a float while k! bound stays small enough
    for the float to be close (and finite); otherwise an exact integer root.
    """
    _require_order(k)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if k == 1:
        return bound
    if k == 2:
        return (1 + math.isqrt(8 * bound + 1)) // 2
    scaled = math.factorial(k) * bound
    if scaled.bit_length() <= min(_FLOAT_ROOT_BITS * k, 1000):
        n = int(scaled ** (1 / k) + (k - 1) / 2)
    else:
        n = _iroot(scaled, k) + (k - 1) // 2
    n = max(n, k)
    while binom(n, k) > bound:
        n -= 1
    while binom(n + 1, k) <= bound:
        n += 1
    return n


def count_upto(k: int, bound: int) -> int:
    """Number of indices n >= k with C(n, k) <= bound."""
    return floor_index(k, bound) - k + 1


def asymptotic_ratio(k: int, bound: int) -> float:
    """count_upto(k, X) divided by its leading-order size (k!)^(1/k) X^(1/k).

    Diagnostic only; the return value is a float. Where k! or X is past
    the float range, the same ratio is taken from logarithms.
    """
    exact = count_upto(k, bound)
    try:
        return exact / (math.factorial(k) ** (1.0 / k) * float(bound) ** (1.0 / k))
    except OverflowError:
        return math.exp(math.log(exact) - (math.lgamma(k + 1) + math.log(bound)) / k)


def gap(k: int, n: int) -> int:
    """Difference C(n+1, k) - C(n, k) between consecutive sequence elements.

    Pascal's rule says the difference equals C(n, k-1); both sides are
    computed and compared before returning.
    """
    _require_order(k)
    if n < k:
        raise ValueError(f"gap requires n >= k, got n={n}, k={k}")
    g = binom(n + 1, k) - binom(n, k)
    assert g == binom(n, k - 1), f"Pascal identity failed at k={k}, n={n}"
    return g


class IncreasingSequence:
    """A strictly increasing integer sequence at a fixed order k >= 1.

    Subclasses give value(n), floor_index(bound) (the largest n with
    value(n) <= bound, for bound >= 1) and first_index; the rest follows.
    """

    __slots__ = ("order",)
    kind: str

    def __init__(self, order: int) -> None:
        _require_order(order)
        self.order = order

    def count_upto(self, bound: int) -> int:
        return self.floor_index(bound) - self.first_index + 1

    def index_of(self, value: int) -> int | None:
        """Index n with value(n) == value, or None."""
        if value < 1:
            return None
        n = self.floor_index(value)
        return n if self.value(n) == value else None

    def contains(self, value: int) -> bool:
        return self.index_of(value) is not None

    def values_upto(self, bound: int) -> list[int]:
        if bound < 1:
            return []
        return [self.value(n) for n in range(self.first_index, self.floor_index(bound) + 1)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class BinomialSequence(IncreasingSequence):
    """The strictly increasing values C(n, k) for n >= k, at a fixed k >= 1."""

    __slots__ = ()
    kind = "binomial"

    @property
    def first_index(self) -> int:
        return self.order

    def value(self, n: int) -> int:
        if n < self.order:
            raise ValueError(f"index must be n >= {self.order}, got {n}")
        return binom(n, self.order)

    def floor_index(self, bound: int) -> int:
        return floor_index(self.order, bound)

    def values_upto(self, bound: int) -> list[int]:
        """One int64 pass while top ** k < _INT64_LIMIT, else binom calls."""
        k, top = self.order, self.floor_index(bound) if bound >= 1 else 0
        if top**k >= _INT64_LIMIT:
            return super().values_upto(bound)
        import numpy as np
        return _binom_array(np.arange(k, top + 1, dtype=np.int64), k).tolist()


class PowerSequence(IncreasingSequence):
    """The strictly increasing values n**k for n >= 1, at a fixed k >= 1.

    Comparison sequence for the multiplicity statistics: same index
    conventions as BinomialSequence but with first index 1.
    """

    __slots__ = ()
    kind = "power"
    first_index = 1

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"index must be n >= 1, got {n}")
        return n**self.order

    def floor_index(self, bound: int) -> int:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return _iroot(bound, self.order)


# Every sequence by the name that records, the CLI and the energy functions use.
SEQUENCES: dict[str, type[IncreasingSequence]] = {
    cls.kind: cls for cls in (BinomialSequence, PowerSequence)
}
