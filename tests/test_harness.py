"""Exhaustive densities, seeded estimation, interval exactness, and the
verification suites."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from codedensity.bounds import CodeFamilySpec, nonlinear_bracket
from codedensity.combinat import binom
from codedensity.classifier import Scenario
from codedensity.guards import Guards, GuardExceeded
from codedensity.harness import (
    DEFAULT_SEED,
    clopper_pearson,
    convergence_experiment,
    estimate_density,
    exact_density,
    run_verification,
    subset_distance_histogram,
    verify_bracket,
)
from codedensity.fields import build_tower
from codedensity.metrics import AmbientSpace, distance

from helpers import codeword_from_int


def test_exact_density_worked_cases():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    assert exact_density(space, CodeFamilySpec(0, 2, size=2)) == Fraction(1, 3)
    lspace = AmbientSpace(2, 1, 2, 2, "hamming")
    assert exact_density(lspace, CodeFamilySpec(1, 2, dim=1)) == Fraction(3, 5)
    assert exact_density(lspace, CodeFamilySpec(1, 1, dim=2)) == 1
    assert exact_density(space, CodeFamilySpec(0, 1, size=3)) == 1


def test_exact_density_guard():
    space = AmbientSpace(2, 1, 2, 4, "hamming")
    with pytest.raises(GuardExceeded) as err:
        exact_density(space, CodeFamilySpec(0, 2, size=8), Guards(enumeration=100))
    assert err.value.count > 100


def test_subset_guard_refuses_exactly_the_counts_past_it():
    # the guard counts the C(N-1, S-1) sets holding the zero word, the walk
    # it does; the 2^min(S-1, N-S) bound refuses only counts past the
    # guard, and the exact count decides the rest
    space = AmbientSpace(2, 1, 1, 3, "hamming")
    histogram = subset_distance_histogram.__wrapped__
    for size in range(2, 9):
        total, rooted = binom(8, size), binom(7, size - 1)
        for limit in sorted({0, 1, 2, 3, 4, 7, 8, 15, 16, rooted - 1, rooted}):
            guards = Guards(enumeration=limit)
            if rooted <= limit:
                assert sum(c for _, c in histogram(space, size, guards)) == total
                continue
            with pytest.raises(GuardExceeded) as err:
                histogram(space, size, guards)
            assert limit < err.value.count <= rooted
            bits = limit.bit_length()
            assert str(err.value).endswith(
                f"count at least 2^{bits} exceeds guard {limit}"
                if min(size - 1, 8 - size) >= bits
                else f"exact count {rooted} exceeds guard {limit}"
            )
    # the bound is built from the guard, not from S
    with pytest.raises(GuardExceeded) as err:
        histogram(AmbientSpace(2, 1, 1, 64, "hamming"), 2**63)
    assert err.value.count == 2**20


def test_linear_guards_are_checked_before_the_tower_is_built(monkeypatch):
    # a refused linear job builds no tower, however large its middle field;
    # invalid parameters are still reported as such first
    from codedensity import harness

    def no_tower(*args):
        raise AssertionError("tower built before the guards were checked")

    monkeypatch.setattr(harness, "build_tower", no_tower)
    histogram = harness.linear_distance_histogram.__wrapped__
    big = AmbientSpace(2, 20, 1, 1, "hamming")
    small = AmbientSpace(2, 1, 2, 4, "hamming")
    for job, what in (
        (lambda: histogram(big, 20, 1), "weight table entries"),
        (lambda: estimate_density(big, CodeFamilySpec(20, 1, dim=1), trials=1), "weight table entries"),
        (lambda: histogram(small, 1, 2, Guards(enumeration=100)), "linear code enumeration"),
    ):
        with pytest.raises(GuardExceeded) as err:
            job()
        assert err.value.what == what
    with pytest.raises(ValueError, match="prime q"):
        exact_density(AmbientSpace(4, 20, 1, 1, "hamming"), CodeFamilySpec(20, 1, dim=1))
    with pytest.raises(ValueError, match="must divide"):
        histogram(AmbientSpace(2, 1, 3, 1, "hamming"), 2, 1)


def test_clopper_pearson_interval_properties():
    level = Fraction(99, 100)
    lo, hi = clopper_pearson(60, 100, level)
    assert 0 <= lo <= Fraction(60, 100) <= hi <= 1
    # trials=1 degenerates to an interval covering nearly everything
    lo, hi = clopper_pearson(0, 1, level)
    assert lo == 0 and hi >= Fraction(99, 100)
    lo, hi = clopper_pearson(1, 1, level)
    assert hi == 1 and lo <= Fraction(1, 100)
    # edge levels rejected
    with pytest.raises(ValueError):
        clopper_pearson(1, 2, Fraction(1))
    with pytest.raises(ValueError):
        clopper_pearson(3, 2, level)


def test_clopper_pearson_exact_endpoints_against_binomial_tails():
    # at the returned lower endpoint the upper tail stays within alpha/2,
    # one grid step further out it crosses: verified with exact arithmetic
    from codedensity.harness import _CP_BITS

    n, x = 50, 20
    level = Fraction(95, 100)
    half = (1 - level) / 2
    lo, hi = clopper_pearson(x, n, level)
    den = 1 << _CP_BITS
    assert _tail_sign(n, x, lo.numerator * (den // lo.denominator), half) <= 0
    above = int(lo * den) + 1
    assert _tail_sign(n, x, above, half) > 0
    # at the upper endpoint P(X <= x) is at most alpha/2, one step in it is not
    comp = 1 - half
    assert hi.denominator <= den
    at = int(hi * den)
    assert _tail_sign(n, x + 1, at, comp) >= 0
    assert _tail_sign(n, x + 1, at - 1, comp) < 0


def _tail_sign(n, x, g, t, cmp=None):
    """Sign of P(X >= x) - t for X ~ Bin(n, g/2^21), 1 <= x <= n, through
    ``cmp(n, x, g, t)`` (``harness._tail_cmp`` by default).  ``cmp`` takes
    thresholds up to 1/2, so a larger t is compared through the mirror
    P(n - X >= n - x + 1 | 1 - p) = 1 - P(X >= x | p) against 1 - t."""
    from codedensity import harness

    if cmp is None:
        cmp = lambda n, x, g, t: harness._tail_cmp(n, x, g, t, harness._binom_bounds(n, x))
    if 2 * t > 1:
        return -cmp(n, n - x + 1, (1 << 21) - g, 1 - t)
    return cmp(n, x, g, t)


def _reference_ge_tail_cmp(n, x, num, den, t_num, t_den):
    """The exact tail comparison summed in integers scaled by den^n, kept
    as it stood before the enclosure; the reference for ``_ge_tail_cmp``."""
    cmp = lambda a, b: (a > b) - (a < b)
    if x <= 0 or num >= den:
        return cmp(t_den, t_num)
    if x > n or num <= 0:
        return cmp(0, t_num)
    a, b = num, den - num
    total_den = den**n
    threshold = t_num * total_den
    if n - x <= x:
        term = math.comb(n, x) * a**x * b ** (n - x)
        s = term
        for j in range(x, n):
            if s * t_den > threshold:
                return 1
            num_r = (n - j) * a
            den_r = (j + 1) * b
            if num_r < den_r:
                gap = den_r - num_r
                if (s * gap + term * num_r) * t_den < threshold * gap:
                    return -1
            term = term * num_r // den_r
            s += term
        return cmp(s * t_den, threshold)
    term = b**n
    s = term
    for j in range(0, x - 1):
        term = term * (n - j) * a // ((j + 1) * b)
        s += term
    return cmp((total_den - s) * t_den, threshold)


def _reference_clopper_pearson(successes, trials, level):
    """Bisection of the whole grid with the reference comparison, as
    ``clopper_pearson`` searched before its float-guided start."""
    half = (1 - level) / 2
    comp = 1 - half
    den = 1 << 21

    def first_ok(ok):  # smallest grid point in (0, den] where ok holds
        lo, hi = 0, den
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi

    def cmp(x, g, t):
        return _reference_ge_tail_cmp(trials, x, g, den, t.numerator, t.denominator)

    lower, upper = Fraction(0), Fraction(1)
    if successes:
        lower = Fraction(first_ok(lambda g: cmp(successes, g, half) > 0) - 1, den)
    if successes < trials:
        upper = Fraction(first_ok(lambda g: cmp(successes + 1, g, comp) >= 0), den)
    return lower, upper


def test_clopper_pearson_matches_the_bisection_reference():
    # seeded differential test: the enclosure, the float-guided start and
    # the exact fallback must give the endpoints of the plain exact bisection
    import random

    rng = random.Random(20221)
    levels = [Fraction(k, 1000) for k in (500, 900, 950, 990, 999)]
    cases = []
    for _ in range(300):
        n = round(10 ** rng.uniform(0, math.log10(3000)))
        x = rng.choice([0, 1, n // 2, n - 1, n, rng.randint(0, n), rng.randint(0, n)])
        cases.append((x, n, rng.choice(levels + [Fraction(rng.randint(1, 9999), 10_000)])))
    cases += [(5924, 10_000, Fraction(99, 100)), (37, 10_000, Fraction(95, 100))]
    # extreme levels: alpha/2 = 10^-60 and a tail near 1 - alpha/2, where
    # only the complement side keeps the enclosure's relative precision
    for level in (1 - Fraction(1, 10**60), Fraction(1, 10**30)):
        cases += [(3, 10, level), (1, 2000, level), (120, 300, level), (250, 300, level)]
    for x, n, level in cases:
        want = _reference_clopper_pearson(x, n, level)
        assert clopper_pearson(x, n, level) == want, (x, n, level)


def test_clopper_pearson_keeps_ties_at_exact_grid_points():
    # levels with alpha/2 equal to a tail at a grid point g0, which random
    # levels never hit: the lower endpoint keeps the largest g with
    # P(X >= x | g) <= alpha/2, so it is g0 itself, and the upper endpoint,
    # the smallest g with P(X <= x | g) <= alpha/2, is its mirror
    den = 1 << 21
    g0 = 12345
    p0 = Fraction(g0, den)
    cases = [
        # n = 1: P(X >= 1 | p) = p and P(X <= 0 | p) = 1 - p
        (1, 1, p0, (p0, 1)),
        (0, 1, p0, (0, 1 - p0)),
        # n = 2: P(X >= 2 | p) = p^2; at x = 1, P(X >= 1 | 1/4) and
        # P(X <= 1 | 3/4) are both 7/16
        (2, 2, p0**2, (p0, 1)),
        (1, 2, Fraction(7, 16), (Fraction(1, 4), Fraction(3, 4))),
    ]
    for x, n, half, want in cases:
        level = 1 - 2 * half
        assert clopper_pearson(x, n, level) == want, (x, n, half)
        assert _reference_clopper_pearson(x, n, level) == want, (x, n, half)


def test_tail_side_is_chosen_by_the_threshold(monkeypatch):
    # the upper endpoint's lower tail, compared with alpha/2 through its
    # mirror, is an upper tail, and the enclosure decides it without the
    # exact sum even where alpha/2 = 10^-60
    from codedensity import harness

    exact_runs = []
    exact = harness._exact_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    level = 1 - Fraction(1, 10**60)
    assert clopper_pearson(120, 300, level) == _reference_clopper_pearson(120, 300, level)
    assert exact_runs == []


def test_exact_fallback_decides_ties_on_either_side(monkeypatch):
    # a threshold equal to the tail lies inside every enclosure, so the
    # exact sum runs, on the tail itself or on its mirror
    from codedensity import harness

    exact_runs = []
    exact = harness._exact_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    half = 1 << 20  # p = 1/2 on the 2^-21 grid
    # P(X >= 1) = 3/4 for X ~ Bin(2, 1/2): summed as P(2 - X >= 2) = 1/4
    assert _tail_sign(2, 1, half, Fraction(3, 4)) == 0
    # P(X >= 2) = 1/2 for X ~ Bin(3, 1/2): summed as the tail itself
    assert _tail_sign(3, 2, half, Fraction(1, 2)) == 0
    assert exact_runs == [(2, 2, half, Fraction(1, 4)), (3, 2, half, Fraction(1, 2))]
    # the exact sum alone must give the reference sign on both sides, ties
    # or not
    thresholds = [Fraction(1, 10**9), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(999, 1000)]
    den = 1 << 21
    for n, x, g in ((2, 1, half), (3, 2, half), (50, 30, 7 << 17), (40, 1, 1 << 11), (9, 9, 5 * den // 6)):
        for t in thresholds:
            want = _reference_ge_tail_cmp(n, x, g, den, t.numerator, t.denominator)
            assert _tail_sign(n, x, g, t, harness._exact_tail_cmp) == want, (n, x, g, t)


def test_guided_search_finds_the_boundary_from_any_guess():
    from codedensity.harness import _last_true

    end = 1 << 21
    for last in (0, 1, 77, end // 3, end - 2, end - 1):
        calls = []
        pred = lambda g: calls.append(g) or g <= last
        for guess in (-5, 0, last - 1000, last - 1, last, last + 1, last + 12345, end - 1, end + 9):
            calls.clear()
            assert _last_true(pred, guess, end) == last, (last, guess)
            assert all(0 <= g < end for g in calls)
        calls.clear()
        _last_true(pred, last, end)
        assert len(calls) == (1 if last == end - 1 else 2)  # a right guess costs two checks


def test_tail_comparison_matches_the_reference_at_and_around_exact_tails(monkeypatch):
    # a threshold equal to an exact tail lies inside every enclosure, so the
    # exact sum must run and report a tie; 2^-100 either side, the enclosure
    # decides alone
    from codedensity import harness

    exact_runs = []
    exact = harness._exact_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    den = 1 << 21
    # tails near 1 (x = 10 and x = 1 here) are compared through their mirrors
    cases = ((50, 30, 1_000_003), (50, 10, 1_000_003), (7, 7, 5), (400, 1, 2**20), (1, 1, 3))
    for n, x, num in cases:
        tail = sum(
            Fraction(math.comb(n, j) * num**j * (den - num) ** (n - j), den**n)
            for j in range(x, n + 1)
        )
        exact_runs.clear()
        assert _tail_sign(n, x, num, tail) == 0
        assert len(exact_runs) == 1
        for shift, sign in ((Fraction(1, 2**100), -1), (-Fraction(1, 2**100), 1)):
            t = tail + shift
            assert _tail_sign(n, x, num, t) == sign
            assert _reference_ge_tail_cmp(n, x, num, den, t.numerator, t.denominator) == sign
        assert len(exact_runs) == 1


def _scaled(bound, shift):
    # the integer m * 2^(e + shift) of a bound (m, e), for e + shift >= 0
    m, e = bound
    return m << (e + shift)


def _check_bound_pair(lo, hi, exact, n):
    # lo <= exact <= hi, with (hi - lo) / exact at most n * 2^-(2*_TAIL_BITS - 8)
    from codedensity.harness import _TAIL_BITS

    shift = max(0, -lo[1], -hi[1])
    lo_int, hi_int, exact_int = _scaled(lo, shift), _scaled(hi, shift), exact << shift
    assert lo_int <= exact_int <= hi_int
    assert (hi_int - lo_int) << (2 * _TAIL_BITS - 8) <= n * exact_int


def test_start_term_bounds_enclose_exact_powers_and_binomials():
    # seeded grid, n up to 10^5: the powering-by-squaring and chunked-product
    # bounds the enclosure uses in place of C(n, x) a^x b^(n-x)
    import random

    from codedensity.harness import _binom_bounds, _pow_bound

    rng = random.Random(1934)
    cases = [(1, 0), (1, 1), (2, 1), (100_000, 50_000), (100_000, 1), (100_000, 99_999), (99_991, 0)]
    for _ in range(40):
        n = round(10 ** rng.uniform(0, 5))
        cases.append((n, rng.choice([0, 1, n // 2, n, rng.randint(0, n), rng.randint(0, n)])))
    bases = [1, 2, 3, 2**21 - 1, 1_000_003]
    for n, k in cases:
        lo, hi = _binom_bounds(n, k)
        _check_bound_pair(lo, hi, math.comb(n, k), max(n, 1))
        base = rng.choice(bases + [rng.randint(1, 2**21)])
        lo, hi = _pow_bound(base, k, False), _pow_bound(base, k, True)
        _check_bound_pair(lo, hi, base**k, max(n, 1))
        # a power of two is held exactly
        assert _pow_bound(2**21, n, False) == _pow_bound(2**21, n, True)
        assert _scaled(_pow_bound(2**21, n, False), 0) == 1 << (21 * n)


def _tail_numerator(n, x, a, b):
    # sum_{j >= x} C(n, j) a^j b^(n-j) = P(X >= x) (a+b)^n, X ~ Bin(n, a/(a+b))
    term = total = math.comb(n, x) * a**x * b ** (n - x)
    for j in range(x, n):
        term = term * (n - j) * a // ((j + 1) * b)
        total += term
    return total


def test_enclosure_signs_agree_with_the_exact_sum(monkeypatch):
    # seeded grid of (n, x, grid point, threshold), n up to 2*10^4: wherever
    # the bounded-start enclosure decides alone its sign is the exact sum's;
    # it never decides a tie, and decides alone 2^-100 either side of one.
    # Each threshold is a multiple of the exact tail, so its sign is known;
    # the exact fallback confirms it on every threshold for n <= 500 and on
    # the tie up to n = 3000.  Above that, x stays within 1000 of n to keep
    # the exact tails short.
    import random

    from codedensity import harness

    exact = harness._exact_tail_cmp
    monkeypatch.setattr(harness, "_exact_tail_cmp", lambda *args: None)  # None: undecided
    # thresholds stay unreduced: the comparisons read only numerator and
    # denominator, and a Fraction would spend seconds on gcds of integers
    # of up to 420 000 bits
    ratio = namedtuple("ratio", "numerator denominator")
    rng = random.Random(18)
    decided = 0
    den = 1 << 21
    for case in range(40):
        n = round(10 ** rng.uniform(0, math.log10(20_000))) if case else 20_000
        if n <= 3000:
            x = rng.choice([1, n, max(1, n // 2), rng.randint(1, n), rng.randint(1, n)])
        else:
            x = n - rng.randint(0, 1000)
        centre = round(den * x / n) + rng.randint(-2000, 2000)
        num = min(max(rng.choice([centre, rng.randint(1, den - 1)]), 1), den - 1)
        a, b = num, den - num
        tail, total = _tail_numerator(n, x, a, b), 1 << (21 * n)
        binom = harness._binom_bounds(n, x)
        # the threshold t = tail * scale * (2^width + step) / (total * 2^width)
        for scale, width, step in itertools.product((1, 3), (100, 20, 1, 0), (-1, 0, 1)):
            t = ratio(tail * scale * ((1 << width) + step), total << width)
            want = harness._cmp(1 << width, scale * ((1 << width) + step))  # tail against t
            if n <= 500 or (n <= 3000 and (scale, step) == (1, 0)):
                assert exact(n, x, a, t) == want
            got = harness._tail_cmp(n, x, a, t, binom)
            if want == 0:
                assert got is None, (n, x, a, b, width)
            elif got is not None:
                decided += 1
                assert got == want, (n, x, a, b, scale, width, step)
            if width == 100 and step:
                assert got == want, (n, x, a, b, scale, step)
    assert decided >= 40 * 18


def _reference_log_mass(n, j, p, log_fact):
    """The float64 log tail as it stood before its window: log P(X in j | p) summed
    over every outcome of an array j; the reference for the windowed sum."""
    log_binom = log_fact[n] - log_fact[j] - log_fact[n - j]
    terms = log_binom + j * math.log(p) + (n - j) * math.log1p(-p)
    top = terms.max()
    return top + math.log(np.exp(terms - top).sum())


def test_windowed_log_mass_matches_the_full_sum():
    # both tails at seeded (x, n, p), p on the 2^-21 grid from its ends to
    # its middle, n up to 10^6; the lower tail P(X <= x | p) is summed as
    # the upper tail P(n - X >= n - x | 1 - p)
    import random

    from codedensity.harness import _log_tail

    rng = random.Random(20264)
    den = 1 << 21
    for _ in range(400):
        n = round(10 ** rng.uniform(0, 6 if rng.random() < 0.05 else 4))
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
        g = rng.choice([1, 2, den - 1, rng.randint(1, den - 1), round(den * 10 ** rng.uniform(-6, 0)) or 1])
        p = g / den
        x = rng.choice([0, 1, n, round(n * p), rng.randint(0, n)])
        for lo, q in ((x, p), (n - x, 1 - p)):
            want = _reference_log_mass(n, np.arange(lo, n + 1), q, log_fact)
            got = _log_tail(n, lo, q, log_fact)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (n, lo, g)


def test_float_guess_window_keeps_every_endpoint(monkeypatch):
    # seeded grid with n <= 2 * 10^4: intervals whose guesses come from the
    # windowed sum equal those from the full sum, and the guesses handed to
    # the exact search differ by at most one grid step
    import random

    from codedensity import harness

    guesses = []
    last_true = harness._last_true
    monkeypatch.setattr(
        harness, "_last_true", lambda pred, guess, end: guesses.append(guess) or last_true(pred, guess, end)
    )
    rng = random.Random(20265)
    levels = [Fraction(k, 1000) for k in (500, 900, 950, 990, 999)]
    cases = []
    for _ in range(150):
        n = round(10 ** rng.uniform(0, math.log10(20_000)))
        cases.append((rng.choice([0, 1, n // 2, n - 1, n, rng.randint(0, n)]), n, rng.choice(levels)))
    windowed = [clopper_pearson(x, n, level) for x, n, level in cases]
    windowed_guesses = list(guesses)
    guesses.clear()
    full = lambda n, x, p, log_fact: _reference_log_mass(n, np.arange(x, n + 1), p, log_fact)
    monkeypatch.setattr(harness, "_log_tail", full)
    assert [clopper_pearson(x, n, level) for x, n, level in cases] == windowed
    assert len(guesses) == len(windowed_guesses)
    assert all(abs(a - b) <= 1 for a, b in zip(guesses, windowed_guesses))


def test_clopper_pearson_at_1e5_trials_needs_no_exact_sum(monkeypatch):
    # the enclosure alone settles every comparison of a 10^5-trial interval,
    # so the bounded start term is the path under test
    from codedensity import harness

    enclosed, exact_runs = [], []
    enclose = harness._tail_cmp
    monkeypatch.setattr(harness, "_tail_cmp", lambda *args: enclosed.append(args[:4]) or enclose(*args))
    monkeypatch.setattr(harness, "_exact_tail_cmp", lambda *args: exact_runs.append(args))
    lo, hi = clopper_pearson(50_000, 100_000, Fraction(99, 100))
    assert (lo, hi) == (Fraction(130003, 262144), Fraction(132141, 262144))
    assert exact_runs == [] and len(enclosed) >= 4


def _reference_enclosed_tail_cmp(n, x, a, b, t_num, t_den):
    """The enclosure in ``_tail_cmp`` as it stood with the start term held as an
    exact integer of about 21n bits; the reference for the bounded one."""
    if t_num <= 0:
        return 1
    start = math.comb(n, x) * a**x * b ** (n - x)
    theta, rem = divmod((t_num * (a + b) ** n) << 160, t_den * start)
    theta_up = theta + (rem != 0)
    term_lo = term_hi = sum_lo = sum_hi = 1 << 160
    ceil_div = lambda p, q: -(-p // q)
    for j in range(x, n):
        if sum_lo > theta:
            return 1
        num_r = (n - j) * a
        den_r = (j + 1) * b
        if num_r < den_r:
            if sum_hi + ceil_div(term_hi * num_r, den_r - num_r) < theta_up:
                return -1
            if term_lo == 0:
                return None
        term_lo = term_lo * num_r // den_r
        term_hi = ceil_div(term_hi * num_r, den_r)
        sum_lo += term_lo
        sum_hi += term_hi
    if sum_lo > theta:
        return 1
    if sum_hi < theta_up:
        return -1
    return None


@pytest.mark.nightly
def test_clopper_pearson_endpoints_match_the_exact_start_enclosure_at_1e5_trials(monkeypatch):
    # endpoints on n = 10^5 are those of the enclosure with an exact start
    # term; the reference takes seconds a call
    from codedensity import harness

    n = 100_000
    cases = [
        (0, Fraction(99, 100)),
        (1, Fraction(95, 100)),
        (37, Fraction(99, 100)),
        (1000, Fraction(999, 1000)),
        (50_000, Fraction(99, 100)),
        (59_240, Fraction(1, 2)),
        (99_999, Fraction(9, 10)),
        (n, Fraction(99, 100)),
    ]
    got = [clopper_pearson(x, n, level) for x, level in cases]

    def enclose(n, x, g, t, binom):
        sign = _reference_enclosed_tail_cmp(n, x, g, (1 << 21) - g, t.numerator, t.denominator)
        return harness._exact_tail_cmp(n, x, g, t) if sign is None else sign

    monkeypatch.setattr(harness, "_tail_cmp", enclose)
    assert got == [clopper_pearson(x, n, level) for x, level in cases]


def test_estimate_density_ci_contains_exact():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    spec = CodeFamilySpec(1, 2, dim=1)
    report = estimate_density(space, spec, trials=3000, seed=DEFAULT_SEED)
    assert report.ci_lower <= Fraction(3, 5) <= report.ci_upper
    assert report.trials == 3000
    assert report.point_estimate == Fraction(report.successes, report.trials)


def test_estimate_density_trial_one_degenerate():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    spec = CodeFamilySpec(1, 2, dim=1)
    report = estimate_density(space, spec, trials=1, seed=5)
    assert report.point_estimate in (0, 1)
    assert report.ci_upper - report.ci_lower >= Fraction(99, 100)


def _trial_batches(monkeypatch):
    # spy: the trials whose generators each call of the linear or the
    # nonlinear scorer saw created since the previous call, as
    # (first, last + 1) ranges; the calls that score only redraws create
    # none and are left out
    from codedensity import harness

    batches, fresh = [], []
    make = harness.trial_generator

    def spied(score):
        def scored(*args):
            if fresh:
                batches.append((fresh[0], fresh[-1] + 1))
                fresh.clear()
            return score(*args)

        return scored

    monkeypatch.setattr(
        harness, "trial_generator", lambda seed, i, reuse=None: fresh.append(i) or make(seed, i, reuse)
    )
    monkeypatch.setattr(harness, "_min_weights", spied(harness._min_weights))
    monkeypatch.setattr(harness, "_subset_min_weights", spied(harness._subset_min_weights))
    return batches


# (space, linearity) pairs over F_2, F_3, F_4 and F_9
_RANK_TEST_SPACES = (
    (AmbientSpace(2, 1, 2, 2, "hamming"), 1),
    (AmbientSpace(2, 1, 1, 5, "sumrank", t=5), 1),
    (AmbientSpace(3, 1, 1, 3, "hamming"), 1),
    (AmbientSpace(3, 1, 2, 2, "rank"), 1),
    (AmbientSpace(2, 2, 1, 3, "hamming"), 2),
    (AmbientSpace(3, 2, 1, 2, "rank"), 2),
)


def test_scorer_reads_zero_exactly_on_rank_deficient_draws():
    # a linear trial scores its drawn matrix without a row reduction; the
    # scorer must flag exactly the draws of rank below k, including k = ns,
    # where most draws are rank-deficient
    from codedensity import fields, harness

    rng = np.random.default_rng(20261)
    for space, ell in _RANK_TEST_SPACES:
        tower = harness.space_tower(space, ell)
        ns = space.n * tower.s
        for k in range(1, ns + 1):
            table, unit_mul, _ = harness._scorer(space, tower, k)
            draws = rng.integers(0, tower.subfield_order, size=(300, k, ns))
            deficient = [len(fields.rref(rows.tolist(), tower)[0]) < k for rows in draws]
            weights = harness._min_weights(draws, tower, table, unit_mul)
            assert [bool(w == 0) for w in weights] == deficient, (space, ell, k)
            assert 0 < sum(deficient) < len(draws) or k == 1, (space, ell, k)


def _full_span_min_weights(bases, tower, table, unit_mul):
    """``_min_weights`` as it stood before it read one word per projective
    point: all p^(k*ell) F_p-combinations of the k*ell generators
    kappa_u * row_r are expanded and the nonzero ones weighed.  The
    reference for the normalized-word scorer."""
    from codedensity.harness import _fp_span
    from codedensity.metrics import _digit_dtype

    p, ell = tower.p, tower.ell
    n_codes, k, ns = bases.shape
    scaled = unit_mul[:, bases].transpose(1, 2, 0, 3)  # (B, k, ell, ns)
    if p == 2:
        gens = (scaled << (np.arange(ns) * ell)).sum(axis=-1)
        words = _fp_span(gens.reshape(n_codes, k * ell), p)
    else:
        digits = np.arange(tower.subfield_order)[:, None] // p ** np.arange(ell) % p
        gens = digits.astype(_digit_dtype(p))[scaled].reshape(n_codes, k * ell, ns * ell)
        words = _fp_span(gens, p) @ p ** np.arange(ns * ell, dtype=np.int64)
    return table[words[:, 1:]].min(axis=1)


# one (space, linearity) pair for each (p, ell) of the middle field
_PROJECTIVE_TEST_SPACES = (
    (AmbientSpace(2, 1, 2, 3, "hamming"), 1),
    (AmbientSpace(2, 2, 2, 2, "rank"), 2),
    (AmbientSpace(2, 3, 2, 2, "sumrank", t=2), 3),
    (AmbientSpace(3, 1, 2, 3, "sumrank", t=3), 1),
    (AmbientSpace(3, 2, 2, 2, "rank"), 2),
    (AmbientSpace(5, 1, 2, 2, "hamming"), 1),
)


def test_normalized_words_give_the_full_span_minimum():
    # seeded differential test: one word per projective point gives the
    # minimum of every nonzero F_p-combination, on random stacks of every
    # k, and a stack whose last row is a middle-field combination of the
    # others (the zero row when k = 1) scores 0
    from codedensity import harness
    from codedensity.metrics import _flat_weight_table

    rng = np.random.default_rng(20263)
    for space, ell in _PROJECTIVE_TEST_SPACES:
        tower = harness.space_tower(space, ell)
        p, ns, order = tower.p, space.n * tower.s, tower.subfield_order
        table = _flat_weight_table(space)
        products = [[tower.k_mul(p**u, p**v) for v in range(ell)] for u in range(ell)]
        unit_mul = harness._index_span(products, p, ell)
        for k in range(1, ns + 1):
            scorer_table, scorer_units, _ = harness._scorer(space, tower, k)
            draws = rng.integers(0, order, size=(120, k, ns))
            for rows in draws[80:]:
                last = [0] * ns
                for coeff, row in zip(rng.integers(0, order, size=k - 1), rows):
                    last = [tower.k_add(a, tower.k_mul(int(coeff), int(x))) for a, x in zip(last, row)]
                rows[-1] = last
            got = harness._min_weights(draws, tower, scorer_table, scorer_units)
            assert got.tolist() == _full_span_min_weights(draws, tower, table, unit_mul).tolist(), (space, k)
            assert not got[80:].any() and got[:80].any(), (space, k)


def _reference_successes(space, spec, trials, seed):
    # one trial at a time: the RREF basis of an accepted draw, scored by
    # the scalar projective-class walk, or the drawn subset's words, scored
    # by the scalar distance of every pair
    from codedensity.harness import space_tower, trial_generator
    from codedensity.fields import sample_code_subset, sample_subspace
    from codedensity.metrics import min_distance

    tower = space_tower(space, max(spec.linearity, 1))
    if spec.linearity == 0:
        subset = lambda gen: sample_code_subset(gen, spec.size, tower, space.n)
        code = lambda gen: [codeword_from_int(v, tower, space.n) for v in subset(gen)]
        return sum(min_distance(code(trial_generator(seed, i)), space) >= spec.d for i in range(trials))
    return sum(
        min_distance(sample_subspace(trial_generator(seed, i), spec.dim, tower, space.n), space, tower=tower)
        >= spec.d
        for i in range(trials)
    )


@pytest.mark.parametrize(
    "space,spec",
    [
        (AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 1, dim=4)),  # k = ns
        (AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 2, dim=3)),
        (AmbientSpace(3, 1, 1, 3, "hamming"), CodeFamilySpec(1, 2, dim=2)),
        (AmbientSpace(2, 2, 1, 3, "hamming"), CodeFamilySpec(2, 2, dim=2)),
        (AmbientSpace(2, 1, 2, 4, "sumrank", t=2), CodeFamilySpec(1, 2, dim=3)),
        # nonlinear: pair weights past 255, indices past 2^63 with odd p,
        # and rank and sum-rank digits for p = 3 and 5
        (AmbientSpace(2, 1, 1, 600, "hamming"), CodeFamilySpec(0, 290, size=3)),
        (AmbientSpace(2, 1, 2, 400, "sumrank", t=200), CodeFamilySpec(0, 260, size=3)),
        (AmbientSpace(3, 1, 1, 41, "hamming"), CodeFamilySpec(0, 25, size=3)),
        (AmbientSpace(3, 1, 2, 3, "rank"), CodeFamilySpec(0, 2, size=4)),
        (AmbientSpace(5, 1, 2, 4, "sumrank", t=2), CodeFamilySpec(0, 3, size=4)),
    ],
)
def test_batched_trials_match_one_trial_at_a_time(space, spec):
    for seed in (0, 5, 2**63 + 1):
        want = _reference_successes(space, spec, 120, seed)
        assert spec.linearity or 0 < want < 120, seed  # a count that can go wrong either way
        assert estimate_density(space, spec, trials=120, seed=seed).successes == want, seed


def test_estimate_density_rejects_seeds_outside_64_bits():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    spec = CodeFamilySpec(1, 2, dim=1)
    for seed in (2**64 + 1, 2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            estimate_density(space, spec, trials=10, seed=seed)
    # a valid seed keeps the draws it had before the range check existed
    assert estimate_density(space, spec, trials=200, seed=1).successes == 118


def test_trial_streams_distinct_across_the_64_bit_seed_range():
    # seeds at and above 2^63 must not collapse onto each other or onto 0
    from codedensity.harness import trial_generator

    seeds = (0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = {tuple(trial_generator(s, 3).integers(0, 2**32, 4)) for s in seeds}
    assert len(draws) == len(seeds)


def _philox_fields(gen):
    state = gen.bit_generator.state
    fields = {**state["state"], **{k: v for k, v in state.items() if k != "state"}}
    return {k: np.asarray(v).tolist() for k, v in fields.items()}


def test_rekeyed_generator_matches_a_fresh_one():
    # before each re-key the reused generator is left mid-block with a
    # buffered uint32, so a reset that missed either would show
    from numpy.random import Generator, Philox

    from codedensity.harness import trial_generator

    reused = trial_generator(12345, 678)
    for seed in (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1):
        for trial in (0, 2**64 - 1):
            reused.random()
            while not (state := reused.bit_generator.state)["has_uint32"] or state["buffer_pos"] == 4:
                reused.integers(0, 3)
            assert trial_generator(seed, trial, reused) is reused
            fresh = Generator(Philox(key=np.array([seed, trial], dtype=np.uint64)))
            assert _philox_fields(reused) == _philox_fields(fresh)
            for q in (2, 3, 4, 5, 7, 9, 16, 25, 2**40):
                assert reused.integers(0, q, 7).tolist() == fresh.integers(0, q, 7).tolist(), (seed, trial, q)
                assert reused.random() == fresh.random()


def _uint32s_handed_out(gen):
    # four uint64 per block before the current one, the used words of the
    # current one, two uint32 halves each, less a buffered upper half
    state = gen.bit_generator.state
    blocks = int(state["state"]["counter"][0])
    words = 4 * (blocks - 1) + state["buffer_pos"] if blocks else 0
    return 2 * words - state["has_uint32"]


def test_philox_evaluator_matches_numpy():
    # counts cross block boundaries and leave a buffered half-word; bound
    # 3 * 2^30 makes numpy retry about a quarter of its draws, and Floyd's
    # bounds vary by position
    from numpy.random import Generator, Philox

    from codedensity.harness import _philox_bounded

    rng = np.random.default_rng(15)
    edges = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
    seeds = edges + rng.integers(0, 2**64, 3, dtype=np.uint64).tolist()
    trials = edges + rng.integers(0, 2**64, 6, dtype=np.uint64).tolist()
    floyd = lambda space, size: np.arange(space - size + 1, space + 1)
    flags = Counter()
    for seed in seeds:
        for count in (1, 7, 8, 9, 17, 64):
            bounds = [2, 3, 4, 5, 7, 9, 16, 25, 2**32, 3 * 2**30, floyd(81, count), floyd(2**32, count)]
            for bound in bounds:
                values, flagged = _philox_bounded(seed, trials, bound, count)
                assert values.shape == (len(trials), count) and values.dtype == np.int64
                for trial, got, flag in zip(trials, values, flagged):
                    gen = Generator(Philox(key=np.array([seed, trial], dtype=np.uint64)))
                    want = gen.integers(0, bound, size=None if np.ndim(bound) else count)
                    assert flag == (_uint32s_handed_out(gen) > count), (seed, trial, bound, count)
                    if not flag:
                        assert got.tolist() == want.tolist(), (seed, trial, bound, count)
                    flags[np.ndim(bound) == 0 and bound & (bound - 1) == 0, bool(flag)] += 1
    assert flags[True, True] == 0  # a power-of-two bound never retries
    assert flags[False, True] > 100 and flags[False, False] > 100


def test_philox_evaluator_refuses_bounds_it_cannot_follow():
    from codedensity.harness import _philox_bounded

    for bound in (1, 2**32 + 1, [5, 1]):
        with pytest.raises(ValueError, match="bounds"):
            _philox_bounded(3, range(4), bound, 2)


# a linear case where about one draw in seven is rank-deficient and redrawn
_REDRAW_SPACE, _REDRAW_SPEC = AmbientSpace(3, 1, 1, 3, "hamming"), CodeFamilySpec(1, 2, dim=2)


# a nonlinear case on 81 words
_SUBSET_SPACE, _SUBSET_SPEC = AmbientSpace(3, 1, 1, 4, "hamming"), CodeFamilySpec(0, 2, size=5)


def test_redrawn_trials_replay_the_evaluator(monkeypatch):
    # a linear trial that scores 0 first replays its evaluated matrix on its
    # own generator; an evaluator that hands out a wrong matrix is caught
    from codedensity import harness

    evaluate = harness._philox_bounded

    def corrupted(seed, trial_ids, bounds, count):
        values, flagged = evaluate(seed, trial_ids, bounds, count)
        values[3] = 0  # the zero matrix scores 0, so trial 3 is redrawn
        return values, flagged

    monkeypatch.setattr(harness, "_philox_bounded", corrupted)
    with pytest.raises(RuntimeError, match="trial 3"):
        estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=50, seed=0)


def test_flagged_trials_draw_from_their_own_generators(monkeypatch):
    # trials the evaluator flags ignore its values, linear or nonlinear
    from codedensity import harness

    cases = ((_REDRAW_SPACE, _REDRAW_SPEC), (_SUBSET_SPACE, _SUBSET_SPEC))
    runs = lambda: [estimate_density(space, spec, trials=300, seed=6).successes for space, spec in cases]
    want = runs()
    evaluate = harness._philox_bounded

    def flag_odd(seed, trial_ids, bounds, count):
        values, flagged = evaluate(seed, trial_ids, bounds, count)
        odd = np.asarray(trial_ids) % 2 == 1
        values[odd] = 0
        return values, flagged | odd

    monkeypatch.setattr(harness, "_philox_bounded", flag_odd)
    assert runs() == want


@pytest.mark.parametrize("bound", [2, 3, 9, 2**31 + 1, 2**32])
def test_one_call_for_two_attempts_equals_two_calls(bound):
    # a zero-scored trial draws its replay and its second attempt in one
    # call: numpy takes each bounded value below 2^32 from the bit
    # generator's own uint32 stream, so one call of 2c values hands out what
    # two calls of c values do and leaves the generator where they leave it
    from codedensity.harness import trial_generator

    for seed, trial in ((0, 0), (1733, 5), (2**64 - 1, 2**63 + 1)):
        for count in (1, 3, 4, 5, 36):
            once, twice = trial_generator(seed, trial), trial_generator(seed, trial)
            pair = once.integers(0, bound, size=2 * count)
            halves = [twice.integers(0, bound, size=count) for _ in range(2)]
            assert pair.tolist() == np.concatenate(halves).tolist(), (seed, trial, count)
            assert _philox_fields(once) == _philox_fields(twice), (seed, trial, count)
            assert once.integers(0, bound, 9).tolist() == twice.integers(0, bound, 9).tolist()


def _one_matrix_per_call_successes(space, spec, trials, seed):
    # the reference: the linear trial loop with one generator call per
    # matrix; each zero-scored evaluated trial replays its first matrix in a
    # call of its own, and each redraw round stacks one new matrix a trial
    from codedensity import harness
    from codedensity.fields import _draw_matrix

    tower = harness.space_tower(space, spec.linearity)
    table, unit_mul, per_chunk = harness._scorer(space, tower, spec.dim)
    score = lambda bases: harness._min_weights(bases, tower, table, unit_mul)
    k, ns = spec.dim, space.n * tower.s
    draw = lambda gen: _draw_matrix(gen, k, tower, space.n)

    def score_batch(trial_ids, gens, first):
        drawn, flagged = first[0].reshape(-1, k, ns), first[1]
        for j in np.flatnonzero(flagged):
            drawn[j] = draw(gens[j])
        weights = score(drawn)
        for j in np.flatnonzero((weights == 0) & ~flagged):
            if not np.array_equal(draw(gens[j]), drawn[j]):
                raise RuntimeError(f"Philox evaluator disagrees with numpy on trial {trial_ids[j]}")
        while (redraw := np.flatnonzero(weights == 0)).size:
            weights[redraw] = score(np.stack([draw(gens[j]) for j in redraw]))
        return int(np.count_nonzero(weights >= spec.d))

    batch = min(per_chunk, harness._TRIAL_BATCH)
    first_draws = (tower.subfield_order, k * ns)
    return harness._trial_successes(trials, seed, batch, score_batch, first_draws)


# linear cases where many draws are rank-deficient: k = ns = 4 over F_2
# (about 69 % of first draws are singular), k = 3 and 1 in F_2^4, k = 2 in
# F_3^2 and F_3^3, F_9-linear rank codes and F_4-linear sum-rank codes
_SINGULAR_CASES = (
    (AmbientSpace(2, 1, 1, 4, "hamming"), CodeFamilySpec(1, 1, dim=4)),
    (AmbientSpace(2, 1, 1, 4, "hamming"), CodeFamilySpec(1, 2, dim=3)),
    (AmbientSpace(2, 1, 1, 4, "hamming"), CodeFamilySpec(1, 2, dim=1)),
    (AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(1, 1, dim=2)),
    (AmbientSpace(3, 1, 1, 3, "hamming"), CodeFamilySpec(1, 2, dim=2)),
    (AmbientSpace(3, 2, 1, 2, "rank"), CodeFamilySpec(2, 2, dim=1)),
    (AmbientSpace(2, 2, 1, 4, "sumrank", t=2), CodeFamilySpec(2, 2, dim=2)),
)


@pytest.mark.parametrize("batch,chunk", [(256, 1 << 13), (5, 200)])
@pytest.mark.parametrize("space,spec", _SINGULAR_CASES)
def test_paired_redraws_match_one_matrix_per_call(monkeypatch, space, spec, batch, chunk):
    # every matrix the scorer sees, in order, and the successes agree with
    # the reference; small batches and chunks put several batches in a
    # window and make many windows
    from codedensity import harness

    monkeypatch.setattr(harness, "_TRIAL_BATCH", batch)
    monkeypatch.setattr(harness, "_CHUNK_WORDS", chunk)
    seen, score = [], harness._min_weights

    def scored(bases, *rest):
        weights = score(bases, *rest)
        seen.append((bases.copy(), weights.copy()))
        return weights

    monkeypatch.setattr(harness, "_min_weights", scored)
    trials = 2200 if batch == 256 else 700  # past a window of 2048 trials at k = 1 over F_2
    want = _one_matrix_per_call_successes(space, spec, trials, 11)
    reference = list(seen)
    seen.clear()
    assert estimate_density(space, spec, trials=trials, seed=11).successes == want
    assert len(seen) == len(reference)
    for (a, wa), (b, wb) in zip(seen, reference):
        assert np.array_equal(a, b) and np.array_equal(wa, wb)
    redrawn = sum(int(np.count_nonzero(w == 0)) for _, w in seen)
    assert redrawn > trials // 200, (space, spec)


def test_each_zero_scored_attempt_makes_one_generator_call(monkeypatch):
    # spy, batch by batch: a flagged trial draws its first matrix before the
    # batch is scored; then each zero-scored attempt makes one call before
    # the next round, of two matrices for an evaluated first attempt and of
    # one otherwise, and the last round scores no 0
    from codedensity import harness

    events, flagged = [], set()
    make, draw = harness.trial_generator, harness._draw_matrix
    score, evaluate = harness._min_weights, harness._philox_bounded

    def drawn(gen, k, tower, n):
        events.append(("draw", k))
        return draw(gen, k, tower, n)

    def scored(bases, *rest):
        weights = score(bases, *rest)
        events.append(("score", weights.copy()))
        return weights

    def flag_thirds(seed, trial_ids, bounds, count):
        values, flags = evaluate(seed, trial_ids, bounds, count)
        ids = np.asarray(trial_ids)
        flags = flags | (ids % 3 == 0)
        flagged.update(ids[flags].tolist())
        return values, flags

    monkeypatch.setattr(
        harness, "trial_generator", lambda seed, i, reuse=None: events.append(("trial", i)) or make(seed, i, reuse)
    )
    monkeypatch.setattr(harness, "_draw_matrix", drawn)
    monkeypatch.setattr(harness, "_min_weights", scored)
    monkeypatch.setattr(harness, "_philox_bounded", flag_thirds)
    totals = Counter()
    for space, spec in (_SINGULAR_CASES[0], (_REDRAW_SPACE, _REDRAW_SPEC)):
        k = spec.dim
        events.clear()
        flagged.clear()
        estimate_density(space, spec, trials=600, seed=2)
        batches, current = [], None
        for kind, value in events:
            if kind == "trial" and (current is None or current[1]):
                current = ([], [])
                batches.append(current)
            (current[0] if kind == "trial" else current[1]).append((kind, value))
        assert [i for ids, _ in batches for _, i in ids] == list(range(600))
        for ids, rest in batches:
            trial_ids = [i for _, i in ids]
            first = [j for j, i in enumerate(trial_ids) if i in flagged]
            assert rest[: len(first)] == [("draw", k)] * len(first)
            rest = rest[len(first) :]
            rows = None
            while rest:
                kind, weights = rest.pop(0)
                assert kind == "score"
                if rows is None:  # the first round: every trial of the batch
                    rows = np.arange(len(trial_ids))
                    calls = [("draw", k if j in first else 2 * k) for j in rows[weights == 0]]
                    totals["paired"] += sum(c == ("draw", 2 * k) for c in calls)
                else:
                    rows = rows[previous == 0]
                    calls = [("draw", k)] * int(np.count_nonzero(weights == 0))
                    totals["later"] += len(calls)
                assert len(weights) == len(rows)
                assert Counter(rest[: len(calls)]) == Counter(calls)
                rest, previous = rest[len(calls) :], weights
            assert not (previous == 0).any()
        totals["flagged"] += len(flagged)
    assert totals["paired"] > 100 and totals["later"] > 100 and totals["flagged"] > 100


def _partition(trials: int, batch: int):
    # consecutive batches of at most ``batch`` trials
    return [(start, min(start + batch, trials)) for start in range(0, trials, batch)]


@pytest.mark.parametrize("batch", [1, 3])
def test_trial_batch_size_does_not_change_successes(monkeypatch, batch):
    # a smaller batch cuts the trials into batches of its own, linear and
    # nonlinear, and keys each trial once, in order, yet gives the same
    # successes and payload bytes
    import json

    from codedensity import harness

    cases = ((_REDRAW_SPACE, _REDRAW_SPEC), (_SUBSET_SPACE, _SUBSET_SPEC))
    runs = lambda: [[estimate_density(space, spec, trials=50, seed=s).successes for s in (0, 9)] for space, spec in cases]
    batches = _trial_batches(monkeypatch)
    drawn, spied = [], harness.trial_generator
    monkeypatch.setattr(
        harness, "trial_generator", lambda seed, i, reuse=None: drawn.append(i) or spied(seed, i, reuse)
    )
    linear = AmbientSpace(2, 1, 2, 2, "rank"), CodeFamilySpec(1, 2, dim=2)
    nonlinear = AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=3)
    payloads = {}
    for size in (harness._TRIAL_BATCH, batch):
        monkeypatch.setattr(harness, "_TRIAL_BATCH", size)
        assert runs() == [[14, 17], [18, 16]], size
        for space, spec in (linear, nonlinear):
            batches.clear()
            drawn.clear()
            report = estimate_density(space, spec, trials=401, seed=77)
            assert drawn == list(range(401)), (spec, size)  # each trial keyed once, in order
            assert batches == _partition(401, size), (spec, size)
            payloads.setdefault(spec, set()).add(json.dumps(report.payload(), sort_keys=True))
    assert all(len(blobs) == 1 for blobs in payloads.values())


# the benchmark's criterion-8 case: 4 first draws a trial, 256 trials a
# batch, so a window of _CHUNK_WORDS = 8192 values holds 8 batches
_CRIT8_SPACE, _CRIT8_SPEC = AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 2, dim=1)


def _window_spy(monkeypatch):
    # spy: the trial range, value count and returned values of every
    # evaluator call
    from codedensity import harness

    windows = []
    evaluate = harness._philox_bounded

    def spied(seed, trial_ids, bounds, count):
        values, flagged = evaluate(seed, trial_ids, bounds, count)
        windows.append((trial_ids, count, values))
        return values, flagged

    monkeypatch.setattr(harness, "_philox_bounded", spied)
    return windows


def test_first_draws_are_evaluated_once_per_window(monkeypatch):
    # a window is a run of whole batches, below the trial count, of at most
    # _CHUNK_WORDS values unless it is a single batch
    from codedensity import harness

    windows = _window_spy(monkeypatch)
    batches = _trial_batches(monkeypatch)
    cases = [
        (_CRIT8_SPACE, _CRIT8_SPEC),
        (_REDRAW_SPACE, _REDRAW_SPEC),
        (_SUBSET_SPACE, _SUBSET_SPEC),
        # 64 values a trial: one batch of 256 trials alone holds 16384
        (AmbientSpace(2, 1, 4, 4, "rank"), CodeFamilySpec(1, 2, dim=4)),
    ]
    multi = Counter()
    for space, spec in cases:
        for trials in (10001, 2000, 257, 1):
            if space.m == 4 and trials > 2000:
                continue
            windows.clear()
            batches.clear()
            estimate_density(space, spec, trials=trials, seed=21)
            assert [i for ids, _, _ in windows for i in ids] == list(range(trials))
            starts, stops = {a for a, _ in batches}, {b for _, b in batches}
            for ids, count, _ in windows:
                assert ids.start in starts and ids.stop in stops, (spec, ids)
                if len(ids) * count > harness._CHUNK_WORDS:
                    assert (ids.start, ids.stop) in batches, (spec, ids)
                multi[space.m == 4] += sum(ids.start <= a and b <= ids.stop for a, b in batches) > 1
    assert multi[False] > 20 and multi[True] == 0
    windows.clear()
    estimate_density(_CRIT8_SPACE, _CRIT8_SPEC, trials=10000, seed=DEFAULT_SEED)
    # 10 000 trials make 5 calls, not one per batch of 256
    assert [(ids.start, ids.stop) for ids, _, _ in windows] == [
        (0, 2048), (2048, 4096), (4096, 6144), (6144, 8192), (8192, 10000)
    ]
    # spaces past 2^32 words draw every subset from the trial's generator
    windows.clear()
    estimate_density(AmbientSpace(2, 1, 1, 64, "hamming"), CodeFamilySpec(0, 2, size=12), trials=30)
    assert windows == []


def test_batches_score_views_into_their_window(monkeypatch):
    # a linear batch's first matrices reach the scorer as a view into the
    # window's values, not as a copy
    from codedensity import harness

    windows = _window_spy(monkeypatch)
    shared = []
    score = harness._min_weights

    def scored(bases, *rest):
        shared.append(np.shares_memory(bases, windows[-1][2]))
        return score(bases, *rest)

    monkeypatch.setattr(harness, "_min_weights", scored)
    estimate_density(_CRIT8_SPACE, _CRIT8_SPEC, trials=3000, seed=4)
    assert len(windows) == 2 and shared.count(True) == 12  # 12 batches; redraw rounds score copies


def test_windows_leave_successes_unchanged(monkeypatch):
    # the reference: an evaluator that flags every trial, so each draws its
    # first values from its own generator
    from codedensity import harness

    cases = ((_CRIT8_SPACE, _CRIT8_SPEC), (_REDRAW_SPACE, _REDRAW_SPEC), (_SUBSET_SPACE, _SUBSET_SPEC))
    counts = (1, 255, 257, 10001)

    def run(space, spec, trials, batch=256):
        monkeypatch.setattr(harness, "_TRIAL_BATCH", batch)
        return estimate_density(space, spec, trials=trials, seed=8).successes

    got = {trials: [{run(space, spec, trials, b) for b in (256, 100, 7)} for space, spec in cases] for trials in counts}
    evaluate = harness._philox_bounded

    def flag_all(seed, trial_ids, bounds, count):
        values, flagged = evaluate(seed, trial_ids, bounds, count)
        return np.zeros_like(values), np.ones_like(flagged)

    monkeypatch.setattr(harness, "_philox_bounded", flag_all)
    for trials in counts:
        want = [{run(space, spec, trials)} for space, spec in cases]
        assert got[trials] == want, trials
    assert 0 < want[0].pop() < 10001 and 0 < want[2].pop() < 10001


def test_a_window_shifted_by_one_trial_is_caught(monkeypatch):
    # negative control: an evaluator that hands each window the draws of the
    # trials one later fails the linear replay check, and changes the
    # nonlinear successes
    from codedensity import harness

    want = estimate_density(_SUBSET_SPACE, _SUBSET_SPEC, trials=600, seed=3).successes
    evaluate = harness._philox_bounded

    def shifted(seed, trial_ids, bounds, count):
        return evaluate(seed, range(trial_ids.start + 1, trial_ids.stop + 1), bounds, count)

    monkeypatch.setattr(harness, "_philox_bounded", shifted)
    for space, spec in ((_CRIT8_SPACE, _CRIT8_SPEC), (_REDRAW_SPACE, _REDRAW_SPEC)):
        with pytest.raises(RuntimeError, match="disagrees with numpy"):
            estimate_density(space, spec, trials=600, seed=3)
    assert estimate_density(_SUBSET_SPACE, _SUBSET_SPEC, trials=600, seed=3).successes != want


def test_pooled_generators_are_distinct_within_a_batch(monkeypatch):
    # spy: the generators handed out between two scorer calls form a batch;
    # none may serve two trials of it, and later batches re-key the same pool
    from codedensity import harness

    batches, current = [], []
    make, score = harness.trial_generator, harness._min_weights

    def handed_out(seed, i, reuse=None):
        current.append(make(seed, i, reuse))
        return current[-1]

    def scored(bases, *rest):
        if current:
            batches.append(list(current))
            current.clear()
        return score(bases, *rest)

    monkeypatch.setattr(harness, "trial_generator", handed_out)
    monkeypatch.setattr(harness, "_min_weights", scored)
    monkeypatch.setattr(harness, "_TRIAL_BATCH", 3)
    estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=20, seed=4)
    assert [len(b) for b in batches] == [3] * 6 + [2]
    for gens in batches:
        assert len({id(gen) for gen in gens}) == len(gens)
    assert len({id(gen) for gens in batches for gen in gens}) == 3


def test_rekeyed_estimates_match_fresh_generators(monkeypatch):
    # both branches reuse generators; a fresh one for every trial is the
    # reference
    from codedensity import harness

    cases = [
        (_REDRAW_SPACE, _REDRAW_SPEC),
        (AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=3)),
    ]
    runs = lambda: [
        estimate_density(space, spec, trials=300, seed=seed).successes
        for space, spec in cases
        for seed in (1, 2**63 + 1)
    ]
    reused = runs()
    make = harness.trial_generator
    monkeypatch.setattr(harness, "trial_generator", lambda seed, i, reuse=None: make(seed, i))
    assert runs() == reused


# the CI's pinned estimate: about 38 % of first draws are rank-deficient
_SINGULAR_SPACE, _SINGULAR_SPEC = AmbientSpace(2, 1, 1, 4, "hamming"), CodeFamilySpec(1, 2, dim=3)


def test_a_thread_keeps_its_generator_pool_across_estimates(monkeypatch):
    # the first estimate of a thread builds a generator per batch slot, a
    # later one builds none and reports what a fresh interpreter reports
    from codedensity import harness

    built, philox = [], harness.Philox

    def counted(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    def estimates():
        counts = []
        runs = ((_CRIT8_SPACE, _CRIT8_SPEC, 600, 2), (_SINGULAR_SPACE, _SINGULAR_SPEC, 5000, 7))
        for space, spec, trials, seed in runs:
            before = len(built)
            report = estimate_density(space, spec, trials=trials, seed=seed)
            counts.append(len(built) - before)
        return counts, report.payload()

    monkeypatch.setattr(harness, "Philox", counted)
    with ThreadPoolExecutor(1) as worker:  # a new thread starts with an empty pool
        counts, payload = worker.submit(estimates).result(timeout=120)
    assert counts == [harness._TRIAL_BATCH, 0]
    assert payload["successes"] == 381
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json\n"
            "from codedensity.bounds import CodeFamilySpec\n"
            "from codedensity.harness import estimate_density\n"
            "from codedensity.metrics import AmbientSpace\n"
            "space, spec = AmbientSpace(2, 1, 1, 4, 'hamming'), CodeFamilySpec(1, 2, dim=3)\n"
            "report = estimate_density(space, spec, trials=5000, seed=7)\n"
            "print(json.dumps(report.payload(), sort_keys=True))",
        ],
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.dumps(payload, sort_keys=True) == fresh.stdout.strip()


def test_threads_hold_disjoint_generator_pools(monkeypatch):
    # more threads than cores estimate at once, switching often and yielding
    # at every trial; each re-keys only its own generators, none of those the
    # main thread used before, and reports what it reports alone
    from codedensity import harness

    cases = [
        (_REDRAW_SPACE, _REDRAW_SPEC, 5),
        (_SUBSET_SPACE, _SUBSET_SPEC, 6),
        (_CRIT8_SPACE, _CRIT8_SPEC, 7),
        (_REDRAW_SPACE, _REDRAW_SPEC, 8),
    ]
    run = lambda case: estimate_density(case[0], case[1], trials=200, seed=case[2]).payload()
    held, make = {}, harness.trial_generator

    def yielding(seed, i, reuse=None):
        time.sleep(0)
        gen = make(seed, i, reuse)
        held.setdefault(threading.get_ident(), []).append(gen)  # keeps every id taken
        return gen

    monkeypatch.setattr(harness, "trial_generator", yielding)
    monkeypatch.setattr(harness, "_TRIAL_BATCH", 4)
    alone = [run(case) for case in cases]
    start = threading.Barrier(len(cases), timeout=60)

    def run_together(case):
        start.wait()
        return run(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(cases)) as workers:
            together = list(workers.map(run_together, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    assert len(held) == len(cases) + 1
    ids = [{id(gen) for gen in gens} for gens in held.values()]
    assert len(set().union(*ids)) == sum(map(len, ids))


def test_an_interrupted_estimate_leaves_the_pool_usable(monkeypatch):
    # an estimate that raises between redraw rounds leaves its generators
    # part-drawn; the thread's next estimate re-keys them before any draw
    from codedensity import harness

    run = lambda: estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=600, seed=9).payload()
    want = run()
    calls, score = [], harness._min_weights

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return score(*args)

    monkeypatch.setattr(harness, "_min_weights", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        run()
    assert run() == want


def test_a_nested_estimate_gets_a_pool_of_its_own(monkeypatch):
    # an estimate started from inside another, in the same thread, must not
    # re-key the generators the outer one still holds
    from codedensity import harness

    outer = lambda: estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=600, seed=9).payload()
    inner = lambda: estimate_density(_CRIT8_SPACE, _CRIT8_SPEC, trials=600, seed=2).payload()
    want = outer(), inner()
    nested, score = [], harness._min_weights

    def scored(*args):
        if not nested:
            nested.append(None)
            nested[0] = inner()
        return score(*args)

    monkeypatch.setattr(harness, "_min_weights", scored)
    assert (outer(), nested[0]) == want


def test_nonlinear_trials_hold_memory_flat(monkeypatch):
    import tracemalloc

    assert estimate_density(_SUBSET_SPACE, _SUBSET_SPEC, trials=300, seed=8).successes == 114
    # on 2^64 words, S*n*m = 768 digit cells per trial: a batch holds at most
    # _CHUNK_WORDS // 768 = 10 trials, so 100 trials of 66 pairs run in ten
    # batches and never hold all 6600 pair differences at once
    batches = _trial_batches(monkeypatch)
    tracemalloc.start()
    try:
        big = AmbientSpace(2, 1, 1, 64, "hamming")
        estimate_density(big, CodeFamilySpec(0, 2, size=12), trials=100, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert batches == [(start, start + 10) for start in range(0, 100, 10)]
    # a trial past _CHUNK_WORDS cells still runs, alone in its batch
    batches.clear()
    estimate_density(AmbientSpace(2, 1, 1, 3000, "hamming"), CodeFamilySpec(0, 2, size=3), trials=3, seed=5)
    assert batches == [(0, 1), (1, 2), (2, 3)]
    # a set of 2000 words has about 2M pairs; its pair triangle is scored a
    # few rows at a time, so their differences are never all held at once
    tracemalloc.start()
    try:
        report = estimate_density(AmbientSpace(2, 1, 1, 16, "hamming"), CodeFamilySpec(0, 2, size=2000), trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.successes == 0
    assert peak < 1 << 24


@pytest.mark.parametrize("level", [Fraction(0), Fraction(1), Fraction(2)])
def test_estimate_density_checks_level_before_sampling(monkeypatch, level):
    from codedensity import harness

    streams = []
    original = harness.trial_generator
    monkeypatch.setattr(
        harness,
        "trial_generator",
        lambda seed, i, reuse=None: streams.append(i) or original(seed, i, reuse),
    )
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    for spec in (CodeFamilySpec(1, 2, dim=1), CodeFamilySpec(0, 2, size=2)):
        with pytest.raises(ValueError, match="confidence level"):
            estimate_density(space, spec, trials=50, level=level)
    assert streams == []
    estimate_density(space, CodeFamilySpec(1, 2, dim=1), trials=50)
    assert streams == list(range(50))  # the counter does see real draws


def test_estimate_density_nonlinear_path():
    space = AmbientSpace(3, 1, 1, 2, "hamming")
    spec = CodeFamilySpec(0, 2, size=3)
    report = estimate_density(space, spec, trials=2000, seed=DEFAULT_SEED)
    exact = exact_density(space, spec)
    assert exact == Fraction(1, 14)
    assert report.ci_lower <= exact <= report.ci_upper


def test_verify_bracket_passes_and_negative_control():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    spec = CodeFamilySpec(0, 2, size=2)
    verdict = verify_bracket(space, spec)
    assert verdict.passed
    # corrupting the tight upper bound must flip the verdict
    density = exact_density(space, spec)
    bracket, _ = nonlinear_bracket(space, 2, 2)
    corrupted = bracket.upper - Fraction(1, 10**6)
    assert not (bracket.lower <= density <= corrupted)


def test_verify_bracket_grid_small():
    for q in (2, 3):
        space = AmbientSpace(q, 1, 1, 2, "hamming")
        for size in (2, 3):
            for d in range(1, space.diameter + 2):
                assert verify_bracket(space, CodeFamilySpec(0, d, size=size)).passed
    for metric, t in (("hamming", 1), ("rank", 1)):
        space = AmbientSpace(2, 1, 2, 2, metric, t=t)
        for k in (1, 2, 3, 4):
            for d in range(1, space.diameter + 2):
                assert verify_bracket(space, CodeFamilySpec(1, d, dim=k)).passed


def test_run_verification_micro_all_pass():
    verdicts = run_verification("micro")
    assert verdicts and all(v.passed for v in verdicts)
    with pytest.raises(ValueError):
        run_verification("nano")


def test_convergence_experiment_dense_bracket_climbs():
    # probes start at 5: below that the clamped lower bound sits at zero
    sc = Scenario("hamming", "q", "extremal", 2, ell=1, n=4, s=2)
    probes = [5, 7, 11, 13, 17, 19]
    rows = convergence_experiment(sc, probes)
    lowers = [r.lower for r in rows]
    assert all(a < b for a, b in zip(lowers, lowers[1:]))
    rhos = [r.rho for r in rows]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_convergence_experiment_sparse_bracket_falls():
    sc = Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=4)
    rows = convergence_experiment(sc, [2, 3, 5, 7])
    uppers = [r.upper for r in rows]
    assert all(a > b for a, b in zip(uppers, uppers[1:]))


def test_convergence_experiment_trivial_distance():
    sc = Scenario("hamming", "s", "extremal", 1, ell=1, q=2, n=2)
    rows = convergence_experiment(sc, [1, 2, 3, 4])
    assert all(r.lower == r.upper == 1 for r in rows)
    assert len({r.rho for r in rows}) == 1  # constant ratio q^(-ell)


def test_fast_min_weight_agrees_with_public_min_distance():
    # the batched scorer used for enumeration and sampling must agree with
    # the straightforward projective-class walk on every subspace
    from codedensity.fields import enumerate_subspaces
    from codedensity.harness import _code_min_weights, space_tower
    from codedensity.metrics import min_distance

    for space, ell in (
        (AmbientSpace(2, 1, 2, 2, "rank"), 1),
        (AmbientSpace(2, 2, 1, 2, "hamming"), 2),
        (AmbientSpace(3, 1, 1, 3, "hamming"), 1),
        (AmbientSpace(2, 1, 2, 4, "sumrank", t=2), 1),
        (AmbientSpace(3, 1, 2, 2, "rank"), 1),
        (AmbientSpace(3, 1, 2, 2, "sumrank", t=2), 1),
        (AmbientSpace(3, 2, 1, 2, "rank"), 2),
        (AmbientSpace(2, 3, 1, 2, "hamming"), 3),
    ):
        tower = space_tower(space, ell)
        ns = space.n * tower.s
        for k in range(1, min(ns, 3) + 1):
            bases = list(enumerate_subspaces(k, tower, space.n))
            fast = np.concatenate(list(_code_min_weights(space, tower, k, bases)))
            assert len(fast) == len(bases)
            for basis, got in zip(bases, fast):
                assert got == min_distance(basis, space, tower=tower), (space, k, basis)


def _stacked_code_min_weights(space, tower, k, bases):
    """``_code_min_weights`` as it stood before its per-chunk row table:
    the k*ns cells of every basis of a chunk are flattened into one
    (chunk, k, ns) stack and scored by ``_min_weights``.  The reference
    for the row-table path."""
    from codedensity import harness

    table, unit_mul, per_chunk = harness._scorer(space, tower, k)
    for top in range(0, len(bases), per_chunk):
        chunk = bases[top : top + per_chunk]
        stack = np.array([basis.rows for basis in chunk], dtype=np.int64)
        yield harness._min_weights(stack, tower, table, unit_mul)


# one (space, linearity) pair for each (p, ell), with every metric over
# F_2 and over F_3
_ROW_TABLE_TEST_SPACES = (
    (AmbientSpace(2, 1, 2, 3, "hamming"), 1),
    (AmbientSpace(2, 2, 2, 2, "rank"), 2),
    (AmbientSpace(2, 3, 1, 3, "sumrank", t=3), 3),
    (AmbientSpace(3, 1, 2, 2, "sumrank", t=2), 1),
    (AmbientSpace(3, 2, 1, 3, "hamming"), 2),
    (AmbientSpace(3, 3, 1, 2, "rank"), 3),
)


@pytest.mark.parametrize("chunk", [1, 64, 1 << 13])
def test_row_table_matches_the_stacked_scorer(monkeypatch, chunk):
    # each chunk's distinct rows are expanded once and gathered by number;
    # chunk by chunk the weights must equal those of the flattened stack,
    # and the per-row step must see exactly the chunk's distinct rows, once
    from codedensity import harness
    from codedensity.fields import enumerate_subspaces

    monkeypatch.setattr(harness, "_CHUNK_WORDS", chunk)
    expanded, expand = [], harness._row_generators
    spy = lambda rows, *rest: expanded.append(rows.copy()) or expand(rows, *rest)
    for space, ell in _ROW_TABLE_TEST_SPACES:
        tower = harness.space_tower(space, ell)
        for k in range(1, min(space.n * tower.s, 3) + 1):
            bases = list(enumerate_subspaces(k, tower, space.n))
            want = list(_stacked_code_min_weights(space, tower, k, bases))
            expanded.clear()
            with monkeypatch.context() as patched:
                patched.setattr(harness, "_row_generators", spy)
                got = list(harness._code_min_weights(space, tower, k, bases))
            assert [w.tolist() for w in got] == [w.tolist() for w in want], (space, k)
            assert len(expanded) == len(got), (space, k)
            top = 0
            for weights, rows in zip(got, expanded):
                distinct = {row for basis in bases[top : top + len(weights)] for row in basis.rows}
                assert sorted(map(tuple, rows.tolist())) == sorted(distinct), (space, k, top)
                top += len(weights)
            assert top == len(bases)


@pytest.mark.parametrize("chunk", [64, 1 << 13])
def test_code_min_weights_pulls_at_most_one_chunk_ahead(monkeypatch, chunk):
    # an instrumented source: at every pull, the bases taken but not yet
    # scored fit in one chunk, and the first chunk is scored before the
    # source runs dry
    from codedensity import harness
    from codedensity.fields import enumerate_subspaces

    monkeypatch.setattr(harness, "_CHUNK_WORDS", chunk)
    space = AmbientSpace(2, 1, 2, 4, "hamming")
    tower, k = harness.space_tower(space, 1), 2
    per_chunk = harness._scorer(space, tower, k)[2]
    pulled, scored, ahead = [0], [0], []

    def source():
        for basis in enumerate_subspaces(k, tower, space.n):
            pulled[0] += 1
            ahead.append(pulled[0] - scored[0])
            yield basis

    first_yield = None
    for weights in harness._code_min_weights(space, tower, k, source()):
        first_yield = pulled[0] if first_yield is None else first_yield
        scored[0] += len(weights)
    assert pulled[0] == scored[0] == 10795
    assert max(ahead) == first_yield == per_chunk < 10795


def test_scorer_needs_no_middle_field_tables():
    # the scorer only needs the products with the F_p-basis units, and a
    # freshly built tower gives the histograms of the shared one
    from codedensity import fields
    from codedensity.harness import linear_distance_histogram

    spaces = (AmbientSpace(2, 2, 1, 2, "hamming"), AmbientSpace(3, 2, 1, 2, "rank"))
    expected = [linear_distance_histogram.__wrapped__(space, 2, 1) for space in spaces]
    # towers are shared per (p, ell, s): build fresh ones, and leave a fresh
    # cache to later tests
    fields.build_tower.cache_clear()
    try:
        for space, want in zip(spaces, expected):
            assert linear_distance_histogram.__wrapped__(space, 2, 1) == want
        with pytest.raises(ValueError, match="nonzero code"):
            linear_distance_histogram.__wrapped__(spaces[0], 2, 0)
    finally:
        fields.build_tower.cache_clear()


def test_scorer_builds_unit_products_from_a_basis(monkeypatch):
    # the unit table is the F_p-span of ell^2 basis products: F_{2^12} takes
    # 144 k_mul calls, not one per table entry (49 152)
    from codedensity.fields import FieldTower
    from codedensity.harness import linear_distance_histogram

    calls = Counter()
    k_mul = FieldTower.k_mul

    def counted(self, i, j):
        calls["k_mul"] += 1
        return k_mul(self, i, j)

    monkeypatch.setattr(FieldTower, "k_mul", counted)
    space = AmbientSpace(2, 12, 1, 1, "hamming")
    assert linear_distance_histogram.__wrapped__(space, 12, 1) == ((1, 1),)
    assert 0 < calls["k_mul"] <= 144


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("metric,t", [("hamming", 1), ("rank", 1), ("sumrank", 2)])
def test_weight_table_matches_metric_weight(q, metric, t):
    # the table is indexed by word index, and the linear scorer reads it at
    # the packed middle-field encoding: entry by entry it holds the weight
    # of the packed vector's word too
    from codedensity.harness import space_tower
    from codedensity.metrics import _flat_weight_table, weight

    for ell, s in ((1, 2), (2, 1)):
        space = AmbientSpace(q, ell, s, 2, metric, t=t)
        tower = space_tower(space, ell)
        table = _flat_weight_table(space)
        assert table.dtype == np.uint8 and table.shape == (space.size,)
        for v in range(space.size):
            assert table[v] == weight(space, codeword_from_int(v, tower, space.n)), (space, v)
        q_mid = tower.subfield_order
        for vec in itertools.product(range(q_mid), repeat=space.n * tower.s):
            index = sum(v * q_mid**i for i, v in enumerate(vec))
            assert table[index] == weight(space, tower.unflatten(vec, space.n)), (space, vec)


def test_one_wrong_table_entry_changes_a_histogram(monkeypatch):
    # negative control: the scorer reads weights only from the table, at
    # the packed encoding, so a zero weight at the packed vector (1, 0),
    # index 1, shows up as codes of minimum weight 0.  Index 5 holds
    # (2 + kappa_1, 0), a scalar multiple of (1, 0) that no code's
    # normalized words include, so a wrong entry there alone changes
    # nothing; a scorer that expanded every F_p-combination would read it.
    from codedensity import harness

    space = AmbientSpace(3, 2, 1, 2, "rank")
    want = harness.linear_distance_histogram.__wrapped__(space, 2, 1)
    table_of = harness._flat_weight_table

    def one_wrong_entry(index):
        def wrong(space):
            table = table_of(space)
            table[index] = 0
            return table

        return wrong

    monkeypatch.setattr(harness, "_flat_weight_table", one_wrong_entry(1))
    got = harness.linear_distance_histogram.__wrapped__(space, 2, 1)
    assert got != want and got[0][0] == 0 and 0 not in dict(want)
    assert sum(c for _, c in got) == sum(c for _, c in want)
    monkeypatch.setattr(harness, "_flat_weight_table", one_wrong_entry(5))
    assert harness.linear_distance_histogram.__wrapped__(space, 2, 1) == want


def test_chunked_scoring_matches_one_code_per_chunk(monkeypatch):
    # default chunks split these runs several times; a chunk constant of 1
    # scores one code or one set at a time, one row of a set's pair
    # triangle at a time, streams one row of pair distances at a time and
    # counts triangles one edge at a time, and both must give the same
    # exact results
    from codedensity import harness

    hist_space = AmbientSpace(2, 1, 2, 4, "hamming")  # 10795 codes, 2730 per chunk
    walk_space = AmbientSpace(2, 1, 1, 8, "hamming")  # 255 rows of pairs, 32 per block
    odd_walk_space = AmbientSpace(3, 1, 1, 4, "sumrank", t=2)  # 80 rows of pairs, one block
    estimates = (
        (AmbientSpace(2, 1, 2, 3, "rank"), CodeFamilySpec(1, 2, dim=3), 3000, 11),  # 1170 codes per chunk
        (AmbientSpace(3, 1, 1, 6, "hamming"), CodeFamilySpec(0, 3, size=12), 2000, 5),  # 113 trials per batch
        # 2^64 words: indices in object arrays, 10 trials per batch
        (AmbientSpace(2, 1, 1, 64, "hamming"), CodeFamilySpec(0, 22, size=12), 300, 5),
    )
    runs = lambda: (
        harness.linear_distance_histogram.__wrapped__(hist_space, 1, 2),
        harness.subset_distance_histogram.__wrapped__(walk_space, 3),
        harness.subset_distance_histogram.__wrapped__(odd_walk_space, 3),
        harness.subset_distance_histogram.__wrapped__(odd_walk_space, 4),
        [estimate_density(space, spec, trials, seed).payload() for space, spec, trials, seed in estimates],
    )
    want = runs()
    monkeypatch.setattr(harness, "_CHUNK_WORDS", 1)
    assert runs() == want
    assert sum(c for _, c in want[0]) == 10795
    # sets at distance 1 hold an edge of the 8-cube: an edge and a third
    # word, less the paths of two edges, met twice; the cube has no triangle
    assert dict(want[1])[1] == 8 * 2**7 * (2**8 - 2) - 2**8 * math.comb(8, 2)
    assert sum(c for _, c in want[1]) == math.comb(2**8, 3)
    assert want[2] == ((1, 42984), (2, 42336))
    assert want[3] == ((1, 1282716), (2, 381024))
    assert [report["successes"] for report in want[4]] == [106, 1, 242]


def test_subset_histogram_total():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    hist = dict(subset_distance_histogram(space, 2))
    assert sum(hist.values()) == 6
    assert hist[1] == 4 and hist[2] == 2
    for size in (0, 1):
        with pytest.raises(ValueError, match="two codewords"):
            subset_distance_histogram.__wrapped__(space, size)
    # S > N words hold no set: refused, not answered with a zero count
    with pytest.raises(ValueError, match="S=9 exceeds the 8 words"):
        subset_distance_histogram.__wrapped__(AmbientSpace(2, 1, 1, 3, "hamming"), 9)


def _subset_histogram_by_distance(space: AmbientSpace, size: int):
    # reference walk: the scalar metrics.distance on every pair of every
    # size-S subset of the words codeword_from_int(v)
    tower = build_tower(space.q, 1, space.m)
    words = [codeword_from_int(v, tower, space.n) for v in range(space.size)]
    hist = Counter(
        min(distance(space, a, b) for a, b in itertools.combinations(combo, 2))
        for combo in itertools.combinations(words, size)
    )
    return tuple(sorted(hist.items()))


def _full_subset_histogram(space: AmbientSpace, size: int):
    """All C(N, S) sets, in lexicographic chunks, each scored by
    ``_subset_min_weights``: the reference for ``subset_distance_histogram``,
    which counts the sets that hold the zero word as cliques."""
    from codedensity.harness import _subset_min_weights

    total = math.comb(space.size, size)
    cells = itertools.chain.from_iterable(itertools.combinations(range(space.size), size))
    counts = np.zeros(space.diameter + 1, dtype=np.int64)
    for start in range(0, total, 1 << 14):
        chunk = np.fromiter(cells, np.int64, count=min(1 << 14, total - start) * size)
        counts += np.bincount(_subset_min_weights(space, chunk.reshape(-1, size)), minlength=counts.size)
    return tuple((w, int(c)) for w, c in enumerate(counts) if c)


CRITERION_2_NONLINEAR_SPACES = [
    AmbientSpace(q, 1, 1, n, metric, t=t)
    for q in (2, 3)
    for n in (2, 3)
    for metric, t in [("hamming", 1), ("rank", 1), ("sumrank", 2), ("sumrank", 3)]
    if n % t == 0
]


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_subset_histogram_matches_a_walk_with_metric_distance(size):
    spaces = list(CRITERION_2_NONLINEAR_SPACES)
    if size > 3:
        # N = 8 and 9 words: 2S = N, or just below it, is counted; 2S > N
        # is answered without a count
        spaces = [space for space in spaces if space.size in (8, 9)]
    if size == 2:
        # odd p with m = 2, where a - b also subtracts digits inside a coordinate
        for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
            spaces.append(AmbientSpace(3, 1, 2, 2, metric, t=t))
        spaces += [AmbientSpace(5, 1, 1, 2, "hamming"), AmbientSpace(2, 1, 2, 2, "rank")]
    for space in spaces:
        want = _subset_histogram_by_distance(space, size)
        got = subset_distance_histogram.__wrapped__(space, size)
        assert got == want, (space, size)
        assert all(type(d) is int and type(c) is int for d, c in got)


# the S = 3 counts on 64 and 81 words that the benchmark's exhaustive
# workload runs, S = 3 on 81 words of rank q = 3, m = 2, where a pair
# difference subtracts two digits of each coordinate, and S = 4 on the
# 64-word Hamming and rank spaces and on the 81-word sum-rank space
_LARGE_SUBSET_WALKS = (
    (AmbientSpace(2, 1, 2, 3, "hamming"), 3),
    (AmbientSpace(2, 1, 3, 2, "rank"), 3),
    (AmbientSpace(3, 1, 1, 4, "sumrank", t=2), 3),
    (AmbientSpace(3, 1, 2, 2, "rank"), 3),
    (AmbientSpace(2, 1, 2, 3, "hamming"), 4),
    (AmbientSpace(2, 1, 3, 2, "rank"), 4),
    (AmbientSpace(3, 1, 1, 4, "sumrank", t=2), 4),
)

# S = 4 to 8 on 16 and 27 words: cliques of 3 to 7 nonzero words, the
# larger ones counted from their lowest word down to triangles
_DEEP_CLIQUE_COUNTS = (
    (AmbientSpace(2, 1, 2, 2, "sumrank", t=2), 4),
    (AmbientSpace(2, 1, 1, 4, "hamming"), 6),
    (AmbientSpace(2, 1, 1, 4, "hamming"), 8),
    (AmbientSpace(3, 1, 1, 3, "hamming"), 5),
    (AmbientSpace(3, 1, 1, 3, "sumrank", t=3), 6),
)


def test_clique_count_matches_the_full_walk():
    # N/S times the clique counts' histogram of the sets holding the zero
    # word is the histogram of all C(N, S) sets scored one by one, on
    # criterion 2's nonlinear grid and on spaces of 16 to 81 words
    cases = [(space, size) for space in CRITERION_2_NONLINEAR_SPACES for size in (2, 3, 4, 5) if size <= space.size]
    for space, size in cases + list(_LARGE_SUBSET_WALKS) + list(_DEEP_CLIQUE_COUNTS):
        got = subset_distance_histogram.__wrapped__(space, size)
        assert got == _full_subset_histogram(space, size), (space, size)
        assert sum(c for _, c in got) == math.comb(space.size, size)
    assert any(w > 1 for space, size in _DEEP_CLIQUE_COUNTS for w, _ in subset_distance_histogram(space, size))


def test_one_wrong_clique_count_fails_the_divisibility_check(monkeypatch):
    # negative control: on N = 8 words with S = 3, S divides N * h0_w only
    # when it divides h0_w, so one a_w off by one moves one rooted set
    # between distances w - 1 and w and leaves a remainder.  (Where S
    # divides N, as at N = 81 and S = 3, the check cannot see such a fault;
    # the full-walk reference covers those.)
    from codedensity import harness

    space = AmbientSpace(2, 1, 1, 3, "hamming")
    counts = harness._rooted_clique_counts
    assert subset_distance_histogram.__wrapped__(space, 3) == _full_subset_histogram(space, 3)

    def planted(*args):
        a = counts(*args)
        a[2] += 1
        return a

    monkeypatch.setattr(harness, "_rooted_clique_counts", planted)
    with pytest.raises(ArithmeticError, match="3 does not divide 8"):
        subset_distance_histogram.__wrapped__(space, 3)


def test_pair_count_streams_its_rows():
    # S = 3 on 2^12 words: a table of all pair distances would hold 16 M
    # entries, but the pairs' levels are counted a block of rows at a time
    import tracemalloc

    space = AmbientSpace(2, 1, 1, 12, "hamming")
    tracemalloc.start()
    try:
        hist = subset_distance_histogram.__wrapped__(space, 3, Guards(enumeration=10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 21
    assert sum(c for _, c in hist) == math.comb(2**12, 3)
    # sets at distance 1 hold an edge of the 12-cube: an edge and a third
    # word, less the paths of two edges, met twice; the cube has no triangle
    assert dict(hist)[1] == 12 * 2**11 * (2**12 - 2) - 2**12 * math.comb(12, 2)


def test_whole_space_subset_walk_builds_no_pair_table(monkeypatch):
    # 3^9 words: a table of all pair distances would hold 387 M entries.  A
    # set of more than half the words always holds a pair at distance 1, so
    # the answer needs no tower and no table of the words, even on 2^21
    import tracemalloc

    from codedensity import harness

    def no_tower(*args):
        raise AssertionError("tower built for a set of more than half the space")

    monkeypatch.setattr(harness, "build_tower", no_tower)
    tracemalloc.start()
    try:
        hist = subset_distance_histogram.__wrapped__(AmbientSpace(3, 1, 1, 9, "hamming"), 3**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist == ((1, 1),)
    assert peak < 1 << 24
    space = AmbientSpace(2, 1, 1, 21, "hamming")
    words = space.size
    for size in (words, words - 1):
        hist = subset_distance_histogram.__wrapped__(space, size, Guards(enumeration=words))
        assert hist == ((1, math.comb(words, size)),)
    assert exact_density(space, CodeFamilySpec(0, 2, size=words)) == 0


def test_reduction_check_counts_pointwise_mismatches(monkeypatch):
    # negative control: one wrong Hamming weight must surface as exactly one
    # mismatch of the eta=1 pair, while the t=1 pair still agrees
    from codedensity import harness

    table_of = harness._flat_weight_table

    def one_wrong_hamming_weight(space):
        table = table_of(space)
        if space.metric == "hamming":
            table[5] += 1
        return table

    monkeypatch.setattr(harness, "_flat_weight_table", one_wrong_hamming_weight)
    pointwise = {
        v.details["pair"]: v
        for v in harness.reduction_verification(2, 1, 2, 2)
        if "weight_mismatches" in v.details
    }
    assert pointwise["t=1 vs rank"].passed
    assert pointwise["t=1 vs rank"].details["weight_mismatches"] == 0
    assert not pointwise["eta=1 vs hamming"].passed
    assert pointwise["eta=1 vs hamming"].details["weight_mismatches"] == 1


def test_reduction_check_refuses_a_prime_power_q():
    # rank weights need base-q digit columns over a prime field
    from codedensity.harness import reduction_verification

    with pytest.raises(ValueError, match="prime q"):
        reduction_verification(4, 1, 1, 2)
