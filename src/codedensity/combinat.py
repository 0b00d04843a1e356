"""Exact arbitrary-precision combinatorics.

Binomials, Gaussian (q-ary) binomials, the infinite product
``pi(q) = prod_{i>=1} q^i / (q^i - 1)`` as a rational interval enclosure, and
lazy enumeration of bounded integer compositions.  Everything here is exact:
counts are Python ints, ratios are ``fractions.Fraction``, and ``pi(q)`` is
only ever exposed as an enclosure because the product does not terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

__all__ = [
    "Enclosure",
    "binom",
    "qbinom",
    "euler_pi",
    "compositions",
    "is_prime",
    "prime_power",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention C(n, k) = 0."""
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def qbinom(a: int, b: int, base: int) -> int:
    """Gaussian binomial: the number of b-dimensional subspaces of an
    a-dimensional vector space over a field with ``base`` elements.

    Out-of-range b (negative or above a) yields 0, so identities such as the
    q-Pascal rule hold verbatim at the boundary.  The product
    prod_{i=0}^{b-1} (base^(a-i) - 1) / (base^(i+1) - 1) is evaluated with
    exact stepwise integer division; every partial product is itself a
    Gaussian binomial, so each division must be exact and a nonzero remainder
    means a bug, not rounding.
    """
    if base < 2:
        raise ValueError(f"qbinom requires base >= 2, got base={base}")
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)
    result = 1
    for i in range(b):
        result *= base ** (a - i) - 1
        quot, rem = divmod(result, base ** (i + 1) - 1)
        if rem:
            raise ArithmeticError(
                f"inexact division in qbinom({a}, {b}, {base}) at factor {i}"
            )
        result = quot
    return result


@dataclass(frozen=True)
class Enclosure:
    """A rational interval [lo, hi] guaranteed to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Fraction | int) -> bool:
        return self.lo <= value <= self.hi


def euler_pi(q: int, width: Fraction | int) -> Enclosure:
    """Enclosure of pi(q) = prod_{i>=1} q^i/(q^i - 1), with hi - lo <= width.

    The product is truncated at index N; the tail satisfies
    log(tail) <= sum_{i>N} 2 q^{-i} <= 4 q^{-(N+1)} because each factor
    1/(1 - q^{-i}) is at most exp(2 q^{-i}) for q >= 2, so
    tail <= 1 / (1 - 4 q^{-(N+1)}) once that bound is below 1.
    """
    if q < 2:
        raise ValueError(f"euler_pi requires q >= 2, got q={q}")
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"euler_pi requires width > 0, got {width}")
    partial = Fraction(1)
    n = 0
    while True:
        n += 1
        partial *= Fraction(q**n, q**n - 1)
        eps = Fraction(4, q ** (n + 1))
        if eps >= 1:
            continue
        hi = partial / (1 - eps)
        if hi - partial <= width:
            return Enclosure(partial, hi)


def compositions(r: int, t: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Yield every t-tuple of integers in [0, cap] summing to r, each exactly
    once, in lexicographic order.  The stream is lazy: callers iterating
    huge families never hold more than one tuple at a time.
    """
    if r < 0 or t < 1 or cap < 0:
        raise ValueError(f"compositions requires r >= 0, t >= 1, cap >= 0")

    def rec(remaining: int, parts_left: int) -> Iterator[tuple[int, ...]]:
        if parts_left == 1:
            if 0 <= remaining <= cap:
                yield (remaining,)
            return
        lo = max(0, remaining - (parts_left - 1) * cap)
        hi = min(cap, remaining)
        for first in range(lo, hi + 1):
            for rest in rec(remaining - first, parts_left - 1):
                yield (first,) + rest

    return rec(r, t)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p^e and p prime, or None if n is not a prime power."""
    if n < 2:
        return None
    for e in range(n.bit_length() - 1, 0, -1):
        p = _iroot(n, e)
        if p**e == n and is_prime(p):
            return p, e
    return None


def _iroot(n: int, e: int) -> int:
    """Largest r with r^e <= n, for n >= 1: integer Newton iteration from
    2^ceil(bits/e), which is above the root, so the iterates fall to it."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y
