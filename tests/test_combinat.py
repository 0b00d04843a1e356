"""Exact combinatorics: q-binomials against subspace-counting oracles, the
pi(q) enclosure, and bounded compositions."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from codedensity.combinat import (
    Enclosure,
    binom,
    compositions,
    euler_pi,
    is_prime,
    prime_power,
    qbinom,
)


def _count_subspaces_bruteforce(a: int, b: int, q: int) -> int:
    """Independent oracle: count b-dim subspaces of F_q^a as distinct row
    spans of all b x a matrices over a small prime field (q prime only)."""
    vectors = list(itertools.product(range(q), repeat=a))

    def span(rows):
        out = {tuple([0] * a)}
        for coeffs in itertools.product(range(q), repeat=len(rows)):
            vec = tuple(
                sum(c * r[i] for c, r in zip(coeffs, rows)) % q for i in range(a)
            )
            out.add(vec)
        return frozenset(out)

    spans = set()
    for rows in itertools.combinations(vectors, b):
        s = span(rows)
        if len(s) == q**b:
            spans.add(s)
    return len(spans)


def test_qbinom_35_subspaces_of_dim4_over_f2():
    assert qbinom(4, 2, 2) == 35
    assert _count_subspaces_bruteforce(4, 2, 2) == 35


def test_qbinom_seven_lines_in_f2_cubed():
    assert qbinom(3, 1, 2) == 7
    assert _count_subspaces_bruteforce(3, 1, 2) == 7


def test_qbinom_conventions():
    for a in range(0, 6):
        assert qbinom(a, 0, 3) == 1
    assert qbinom(2, -1, 3) == 0
    assert qbinom(2, 3, 3) == 0


def test_qbinom_out_of_range_negative_a():
    # b > a or b < 0 gives 0; only 0 <= b <= a yields a nonzero count
    assert qbinom(-1, 0, 2) == 0
    assert qbinom(-2, 1, 2) == 0
    assert qbinom(5, 6, 2) == 0


def test_qbinom_invalid_base():
    with pytest.raises(ValueError):
        qbinom(4, 2, 1)


def test_qbinom_symmetry():
    for q in (2, 3, 4):
        for a in range(0, 7):
            for b in range(0, a + 1):
                assert qbinom(a, b, q) == qbinom(a, a - b, q)


def test_qbinom_pascal_identity():
    for q in (2, 3, 4):
        for a in range(1, 8):
            for b in range(0, a + 1):
                lhs = qbinom(a, b, q)
                rhs = qbinom(a - 1, b - 1, q) + q**b * qbinom(a - 1, b, q)
                assert lhs == rhs


def test_binom_examples():
    assert binom(4, 1) == 4
    for t in range(0, 6):
        assert binom(t, t) == 1
    assert binom(10, 5) == 252
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_matches_pascal_recurrence():
    table = {(0, 0): 1}
    for n in range(1, 11):
        for k in range(0, n + 1):
            table[(n, k)] = table.get((n - 1, k - 1), 0) + table.get((n - 1, k), 0)
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert binom(n, k) == table[(n, k)]


def test_compositions_forced_and_small():
    assert list(compositions(2, 2, 1)) == [(1, 1)]
    assert list(compositions(1, 2, 2)) == [(0, 1), (1, 0)]


def test_compositions_count_by_bruteforce():
    brute = [u for u in itertools.product(range(3), repeat=3) if sum(u) == 3]
    got = list(compositions(3, 3, 2))
    assert len(got) == len(brute) == 7
    assert got == sorted(brute)


def test_compositions_lexicographic_and_unique():
    for r, t, cap in ((4, 3, 3), (5, 4, 2), (0, 2, 1)):
        seq = list(compositions(r, t, cap))
        assert seq == sorted(set(seq))
        assert all(len(u) == t and sum(u) == r and max(u, default=0) <= cap for u in seq)


def test_compositions_total_over_r():
    for t, cap in ((2, 2), (3, 1), (3, 2)):
        total = sum(len(list(compositions(r, t, cap))) for r in range(t * cap + 1))
        assert total == (cap + 1) ** t


def test_compositions_empty_when_r_too_large():
    assert list(compositions(7, 3, 2)) == []


def test_euler_pi_width_and_value():
    enc = euler_pi(2, Fraction(1, 1000))
    assert enc.width <= Fraction(1, 1000)
    assert enc.lo < Fraction(34627, 10000) < enc.hi
    # the tighter enclosure must be nested inside the looser one
    tight = euler_pi(2, Fraction(1, 10**9))
    assert enc.lo <= tight.lo <= tight.hi <= enc.hi


def test_euler_pi_lower_bound_above_one():
    for q in (2, 3, 5, 17, 101):
        assert euler_pi(q, Fraction(1, 100)).lo > 1


def test_euler_pi_shrinks_with_q():
    width = Fraction(1, 10**6)
    his = [euler_pi(q, width).hi for q in (2, 3, 5, 7, 11, 101)]
    assert all(a > b for a, b in zip(his, his[1:]))
    assert his[-1] < Fraction(102, 100)


def test_euler_pi_rejects_bad_width():
    with pytest.raises(ValueError):
        euler_pi(2, 0)
    with pytest.raises(ValueError):
        euler_pi(1, Fraction(1, 10))


def test_qbinom_ratio_approaches_euler_pi():
    # [2n, n]_q / q^(n*n) settles inside the pi(q) enclosure widened by 1/100
    n = 12
    for q in (2, 3, 5):
        enc = euler_pi(q, Fraction(1, 10**6))
        ratio = Fraction(qbinom(2 * n, n, q), q ** (n * n))
        assert enc.lo - Fraction(1, 100) <= ratio <= enc.hi + Fraction(1, 100)


def test_enclosure_invariants():
    with pytest.raises(ValueError):
        Enclosure(Fraction(2), Fraction(1))
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.contains(Fraction(2, 5))
    assert not e.contains(Fraction(2, 3))


def test_qbinom_huge_values_roundtrip():
    # magnitudes in the ten-thousand-bit range stay exact
    big = qbinom(200, 100, 2)
    assert big.bit_length() > 9_000
    assert int(str(big)) == big
    assert qbinom(200, 100, 2) == qbinom(199, 99, 2) + 2**100 * qbinom(199, 100, 2)


def test_primality_helpers():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_prime_power_exact_for_huge_powers():
    assert prime_power(2**2000) == (2, 2000)
    assert prime_power(3**700) == (3, 700)
    assert prime_power(3 * 2**2000) is None
    primes = [p for p in range(2, 5000) if is_prime(p)]
    powers = {p**e: (p, e) for p in primes for e in range(1, 13) if p**e < 5000}
    for n in range(5000):
        assert prime_power(n) == powers.get(n)


# the smallest strong pseudoprime to the 12 bases 2..37
_PSP_BASES_TO_37 = 318665857834031151167461


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    from codedensity.metrics import AmbientSpace

    assert 399165290221 * 798330580441 == _PSP_BASES_TO_37
    assert not is_prime(_PSP_BASES_TO_37)
    assert prime_power(_PSP_BASES_TO_37) is None
    with pytest.raises(ValueError, match="prime power"):
        AmbientSpace(_PSP_BASES_TO_37, 1, 1, 1, "hamming")
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_matches_a_sieve():
    limit = 20_000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_baillie_psw_halves_and_large_numbers():
    from codedensity.combinat import _strong_lucas_probable_prime, _strong_probable_prime

    # the strong Lucas pseudoprimes below 20000 (Selfridge parameters) pass
    # the Lucas half and fail the base-2 half; 2047 and 3277 do the reverse
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n) and not _strong_probable_prime(n, 2)
    for n in (2047, 3277, 4033, 4681, 8321):
        assert _strong_probable_prime(n, 2) and not _strong_lucas_probable_prime(n)
    # above 3.3 * 10^24: Mersenne primes, and composites including a square
    for e in (89, 107, 127, 521, 607):
        assert is_prime(2**e - 1)
    for n in ((2**61 - 1) ** 2, (2**61 - 1) * (2**89 - 1), (2**31 - 1) * (2**61 - 1)):
        assert not is_prime(n)
    assert not _strong_lucas_probable_prime((2**61 - 1) ** 2)  # a square has no Selfridge D
    assert prime_power((2**89 - 1) ** 3) == (2**89 - 1, 3)
