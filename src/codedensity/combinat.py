"""Exact arbitrary-precision combinatorics.

Binomials, Gaussian (q-ary) binomials, lazy enumeration of bounded integer
compositions, and primality and prime-power tests.  Everything here is
exact: counts are Python ints.

Gaussian binomials are products of cyclotomic values Phi_j(q), each found
by one small exact division and multiplied as a balanced tree, so no
division touches the full result, which at paper scale runs to ~10^5 digits.
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = [
    "binom",
    "qbinom",
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
    q-Pascal rule hold verbatim at the boundary.  In range, the polynomial
    [a, b]_x factors into cyclotomic polynomials as the product of Phi_j(x)
    over 2 <= j <= a with a % j < b % j (that is, with
    floor(a/j) - floor(b/j) - floor((a-b)/j) = 1; the exponent is never 2),
    so the value is the product of the numbers Phi_j(base).  Each of them
    has at most about j * log2(base) bits and comes from one exact division
    (:func:`_cyclotomic_value`), which raises ArithmeticError on a nonzero
    remainder.  The factors are multiplied as a balanced tree, so no
    division ever touches the full result and the big products pair
    operands of equal size.
    """
    if base < 2:
        raise ValueError(f"qbinom requires base >= 2, got base={base}")
    if b < 0 or b > a:
        return 0
    factors = [_cyclotomic_value(j, base) for j in range(2, a + 1) if a % j < b % j]
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return math.prod(factors)


def _cyclotomic_value(j: int, base: int) -> int:
    """Phi_j(base) for j >= 1, as prod over squarefree e | j of
    (base^(j/e) - 1)^mu(e): the terms with mu(e) = 1 and those with
    mu(e) = -1 are multiplied apart and divided once, exactly."""
    divisors = [(1, 1)]  # (e, mu(e)) for the squarefree divisors e seen so far
    rest, p = j, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # no factor up to its square root: rest is prime
        if rest % p == 0:
            divisors += [(e * p, -mu) for e, mu in divisors]
            while rest % p == 0:
                rest //= p
        p += 1
    num = den = 1
    for e, mu in divisors:
        if mu > 0:
            num *= base ** (j // e) - 1
        else:
            den *= base ** (j // e) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division in Phi_{j}({base})")
    return value


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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Strong probable primes to all of _SMALL_PRIMES below this bound are prime
# (Sorenson and Webster, 2015); the first 12 bases only reach 3.18 * 10^23.
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality, exact for n < 3.3 * 10^24 and Baillie-PSW above.

    Below the bound a strong probable-prime test to the 13 bases 2..41 is a
    proof.  Above it, n must pass a strong base-2 test and a strong Lucas
    test (Baillie-PSW); no composite passing both is known.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd > a, n - 1 = d * 2^s with d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n not divisible
    by a prime up to 41: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd; walk U_k, V_k and Q^k up the bits of d
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_{k+1} = (U_k + V_k)/2 and V_{k+1} = (D U_k + V_k)/2, halved mod odd n
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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
