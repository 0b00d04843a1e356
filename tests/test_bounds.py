"""Singleton/GV bounds and the two-sided density brackets, checked against
exhaustive enumeration."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from codedensity.bounds import (
    CodeFamilySpec,
    DensityBracket,
    _at_most,
    _clamped,
    _reduced,
    bad_code_count_brackets,
    gv_cardinality,
    max_linear_dimension,
    nonlinear_bracket,
    singleton_max,
    sublinear_bracket,
)
from codedensity.combinat import binom, qbinom
from codedensity.fields import build_tower
from codedensity.harness import exact_density, subset_distance_histogram
from codedensity.metrics import AmbientSpace, ball_volume, subtract, weight

from helpers import codeword_from_int


def _max_code_size_bruteforce(space: AmbientSpace, d: int) -> int:
    """Largest code with min distance >= d, by exhaustive subset search."""
    tower = build_tower(space.q, 1, space.m)
    words = [codeword_from_int(v, tower, space.n) for v in range(space.size)]
    compatible = {
        (i, j)
        for i, j in itertools.combinations(range(len(words)), 2)
        if weight(space, subtract(space, words[i], words[j])) >= d
    }
    best = 1
    # greedy-free exact search: grow cliques ordered by smallest member
    def extend(chosen, candidates):
        nonlocal best
        best = max(best, len(chosen))
        for idx, c in enumerate(candidates):
            ok = all((min(c, x), max(c, x)) in compatible for x in chosen)
            if ok:
                extend(chosen + [c], candidates[idx + 1 :])

    extend([], list(range(len(words))))
    return best


def test_singleton_hamming_matches_exhaustive_max():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    assert singleton_max(space, 2) == 2
    assert _max_code_size_bruteforce(space, 2) == 2


def test_singleton_sumrank_matches_exhaustive_max():
    space = AmbientSpace(2, 1, 2, 2, "sumrank", t=2)
    assert singleton_max(space, 2) == 4
    assert _max_code_size_bruteforce(space, 2) == 4


def test_singleton_d1_is_whole_space():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        space = AmbientSpace(3, 1, 2, 2, metric, t=t)
        assert singleton_max(space, 1) == space.size


def test_singleton_nonincreasing_and_gv_dominated():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        space = AmbientSpace(2, 2, 2, 4, metric, t=t)
        prev = None
        for d in range(1, space.diameter + 1):
            s_max = singleton_max(space, d)
            assert prev is None or s_max <= prev
            prev = s_max
            assert gv_cardinality(space, d) <= s_max


def test_max_linear_dimension():
    space = AmbientSpace(2, 2, 2, 3, "hamming")
    for d in range(1, 4):
        k_star, exact = max_linear_dimension(space, d, 2)
        assert exact  # ell divides m, so Hamming exponents split evenly
    rank_space = AmbientSpace(2, 2, 1, 3, "rank")
    k_star, exact = max_linear_dimension(rank_space, 2, 2)
    assert (k_star, exact) == (1, False)  # quasi case: exponent 3, ell 2
    k_star, exact = max_linear_dimension(rank_space, 2, 1)
    assert exact


def test_max_linear_dimension_brackets_exponent():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        space = AmbientSpace(2, 2, 2, 4, metric, t=t)
        from codedensity.bounds import singleton_exponent

        for d in range(1, space.diameter + 1):
            for ell in (1, 2, 4):
                k_star, _ = max_linear_dimension(space, d, ell)
                expo = singleton_exponent(space, d)
                assert ell * k_star <= expo < ell * (k_star + 1)


def test_gv_cardinality_examples():
    space = AmbientSpace(2, 1, 1, 3, "hamming")
    assert gv_cardinality(space, 1) == space.size
    assert gv_cardinality(space, 2) == 2  # ceil(8 / 4)
    assert gv_cardinality(space, space.diameter + 1) == 1


def test_nonlinear_bracket_worked_case():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    bracket, terms = nonlinear_bracket(space, 2, 2)
    assert terms.theta == 1
    assert bracket.lower == bracket.upper == Fraction(1, 3)
    assert exact_density(space, CodeFamilySpec(0, 2, size=2)) == Fraction(1, 3)


def test_nonlinear_bracket_d1_and_validation():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    bracket, _ = nonlinear_bracket(space, 2, 1)
    assert bracket.lower == bracket.upper == 1
    with pytest.raises(ValueError):
        nonlinear_bracket(AmbientSpace(3, 1, 1, 1, "hamming"), 2, 1)  # ambient 3 < 4
    with pytest.raises(ValueError):
        nonlinear_bracket(space, 1, 2)


def test_nonlinear_bracket_contains_exhaustive_density():
    space = AmbientSpace(2, 1, 1, 3, "hamming")
    dens = exact_density(space, CodeFamilySpec(0, 2, size=3))
    bracket, _ = nonlinear_bracket(space, 3, 2)
    assert bracket.lower <= dens <= bracket.upper


def _nonlinear_bracket_by_fractions(ambient, v, size):
    """Raw lower, raw upper, beta0, beta1 and Theta of the nonlinear bracket
    in an ambient space of N words with ball volume v, by plain Fraction
    arithmetic: the formula as the docstring writes it."""
    if v == 1:
        return Fraction(1), Fraction(1), Fraction(1), Fraction(-2), Fraction(1)
    beta0 = Fraction(ambient * (v - 1), 2) - 2 * v + 3
    beta1 = Fraction(2 * v - 4)
    theta = (
        1
        + beta1 * Fraction(size - 2, ambient - 2)
        + beta0 * Fraction((size - 2) * (size - 3), (ambient - 2) * (ambient - 3))
    )
    spoiled = Fraction((v - 1) * size * (size - 1), 2 * (ambient - 1))
    return 1 - spoiled, 1 - spoiled / theta, beta0, beta1, theta


def _nonlinear_bracket_grid():
    """(space, S, d): q up to 9, m <= 3, n <= 5, all three metrics, every d up
    to diameter+1, and S at both ends of its range and at N/2 and 1000."""
    for q, m, n in itertools.product((2, 3, 4, 5, 7, 8, 9), (1, 2, 3), range(1, 6)):
        spaces = [AmbientSpace(q, 1, m, n, "hamming"), AmbientSpace(q, 1, m, n, "rank")]
        spaces += [AmbientSpace(q, 1, m, n, "sumrank", t=t) for t in range(2, n + 1) if n % t == 0]
        for space in spaces:
            ambient = space.size
            if ambient < 4:
                continue
            sizes = {2, 3, 4, 5, ambient // 2, ambient - 1, ambient, 1000}
            for d in range(1, space.diameter + 2):
                for size in sorted(s for s in sizes if 2 <= s <= ambient):
                    yield space, size, d


def _assert_bracket_matches_the_fraction_formula(space, size, d, v):
    bracket, terms = nonlinear_bracket(space, size, d)
    outputs = (bracket.raw_lower, bracket.raw_upper, terms.beta0, terms.beta1, terms.theta)
    assert outputs == _nonlinear_bracket_by_fractions(space.size, v, size), (space, size, d, v)
    assert bracket.lower == max(bracket.raw_lower, 0)
    assert bracket.upper == min(bracket.raw_upper, 1)
    for value in outputs + (bracket.lower, bracket.upper):
        num, den = value.numerator, value.denominator
        assert den > 0 and math.gcd(num, den) == 1, (space, size, d, v)
        plain = Fraction(num, den)
        assert value == plain and hash(value) == hash(plain)


def test_nonlinear_bracket_matches_the_fraction_formula():
    # the grid, and the benchmark's paper-scale rank space F_{2^200}^400,
    # whose Theta numerator runs to about 160 000 bits
    big = AmbientSpace(2, 200, 1, 400, "rank")
    cases = itertools.chain(_nonlinear_bracket_grid(), ((big, 2**40, 5), (big, 2**40, 65)))
    count = 0
    for space, size, d in cases:
        _assert_bracket_matches_the_fraction_formula(space, size, d, ball_volume(space, d - 1))
        count += 1
    assert count > 8000


def test_nonlinear_bracket_reduction_holds_for_any_volume(monkeypatch):
    # A real ball volume is 1 mod q-1, so an odd N (odd q) comes with an odd
    # v, and then the two denominators are never both even.  The reduction
    # must not lean on that: every v from 2 to N, with every S, in a few
    # small spaces of odd and even size.
    from codedensity import bounds

    for space in (
        AmbientSpace(5, 1, 1, 1, "hamming"),
        AmbientSpace(7, 1, 1, 1, "hamming"),
        AmbientSpace(3, 1, 1, 3, "hamming"),
        AmbientSpace(2, 1, 1, 4, "hamming"),
    ):
        ambient = space.size
        for v in range(2, ambient + 1):
            monkeypatch.setattr(bounds, "ball_volume", lambda space, r, v=v: v)
            for size in range(2, ambient + 1):
                _assert_bracket_matches_the_fraction_formula(space, size, 2, v)


def test_reduced_fraction_acts_like_fraction():
    # _reduced sets Fraction's slots directly; run this under every
    # supported Python, since the slot layout is private
    for num, den in ((0, 1), (1, 1), (-7, 3), (3**50, 2**70), (-(2**200 + 1), 6)):
        value = _reduced(num, den)
        plain = Fraction(num, den)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (num, den)
        assert value == plain and hash(value) == hash(plain)
        assert (repr(value), str(value)) == (repr(plain), str(plain))
        other = Fraction(-5, 12)
        assert value + other == plain + other and value * other == plain * other
        assert value - 1 == plain - 1 and other / (value or 1) == other / (plain or 1)
        assert (value < other) == (plain < other) and value**2 == plain**2
        assert {value: 1}[plain] == 1


def test_sublinear_bracket_worked_case():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    bracket, terms = sublinear_bracket(space, 1, 1, 2)
    assert terms.theta_bar == 1
    assert bracket.lower == bracket.upper == Fraction(3, 5)
    assert exact_density(space, CodeFamilySpec(1, 2, dim=1)) == Fraction(3, 5)


def test_sublinear_bracket_full_dimension_and_d1():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    bracket, _ = sublinear_bracket(space, 4, 1, 1)
    assert bracket.lower == bracket.upper == 1
    # the single full-space code has distance 1, so the d=2 bracket's raw
    # upper bound collapses to the exact density 0
    bracket, _ = sublinear_bracket(space, 4, 1, 2)
    assert bracket.raw_upper == 0
    assert exact_density(space, CodeFamilySpec(1, 2, dim=4)) == 0


def test_sublinear_bracket_contains_rank_density():
    space = AmbientSpace(2, 1, 2, 2, "rank")
    dens = exact_density(space, CodeFamilySpec(1, 2, dim=2))
    bracket, _ = sublinear_bracket(space, 2, 1, 2)
    assert bracket.lower <= dens <= bracket.upper


def test_bracket_rawbounds_ordered_and_theta_at_least_one():
    for q, n in ((2, 2), (2, 3), (3, 2)):
        space = AmbientSpace(q, 1, 1, n, "hamming")
        for size in (2, 3, 4):
            for d in range(2, space.diameter + 2):
                bracket, terms = nonlinear_bracket(space, size, d)
                assert terms.theta >= 1
                assert bracket.raw_lower <= bracket.raw_upper
    space = AmbientSpace(2, 1, 2, 2, "rank")
    for k in range(1, 5):
        for d in range(2, space.diameter + 2):
            bracket, terms = sublinear_bracket(space, k, 1, d)
            assert terms.theta_bar >= 1
            assert bracket.raw_lower <= bracket.raw_upper


def _linear_bracket_grid():
    """(space, ell, k, d) with k in {1, 2, ns-1, ns}, ns = 1 included, and
    every d up to diameter+1."""
    for q, ell, s, n in itertools.product((2, 3, 4, 1009), (1, 2), (1, 2), (1, 2, 4)):
        spaces = [AmbientSpace(q, ell, s, n, "hamming"), AmbientSpace(q, ell, s, n, "rank")]
        if n > 1:
            spaces.append(AmbientSpace(q, ell, s, n, "sumrank", t=2))
        ns = n * s
        for space in spaces:
            for k in sorted({1, 2, ns - 1, ns} & set(range(1, ns + 1))):
                for d in range(1, space.diameter + 2):
                    yield space, ell, k, d


def _three_qbinom_terms(space, k, ell, d):
    """Raw lower, raw upper and theta_bar of the sublinear bracket, and the
    bad-code count bounds, from the three Gaussian binomials [ns, k],
    [ns-1, k-1] and [ns-2, k-2]."""
    ns = space.n * space.m // ell
    base = space.q**ell
    v = ball_volume(space, d - 1)
    if v == 1:
        return Fraction(1), Fraction(1), Fraction(1), (Fraction(0), Fraction(0))
    b_all = qbinom(ns, k, base)
    b_one = qbinom(ns - 1, k - 1, base)
    b_two = qbinom(ns - 2, k - 2, base)
    spoiled = Fraction((v - 1) * b_one, (base - 1) * b_all)
    theta_bar = 1 + (Fraction(v - 1, base - 1) - 1) * Fraction(b_two, b_one)
    vv = Fraction(v - 1, base - 1)
    counts = ((vv * b_one * b_one) / (b_one + (vv - 1) * b_two), vv * b_one)
    return 1 - spoiled, 1 - spoiled / theta_bar, theta_bar, counts


def test_linear_brackets_match_three_qbinom_formulas():
    cases = 0
    for space, ell, k, d in _linear_bracket_grid():
        raw_lower, raw_upper, theta_bar, counts = _three_qbinom_terms(space, k, ell, d)
        bracket, terms = sublinear_bracket(space, k, ell, d)
        assert (bracket.raw_lower, bracket.raw_upper, terms.theta_bar) == (
            raw_lower,
            raw_upper,
            theta_bar,
        ), (space, ell, k, d)
        assert bad_code_count_brackets(space, CodeFamilySpec(ell, d, dim=k)) == counts
        cases += 1
    assert cases > 1000


def test_bad_code_count_consistency_identity():
    # upper count / total == 1 - lower density bound, and symmetrically
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    lower_count, upper_count = bad_code_count_brackets(space, CodeFamilySpec(0, 2, size=2))
    total = binom(space.size, 2)
    bracket, _ = nonlinear_bracket(space, 2, 2)
    assert 1 - Fraction(upper_count) / total == bracket.raw_lower
    assert 1 - Fraction(lower_count) / total == bracket.raw_upper

    for lspace, ell, k, d in _linear_bracket_grid():
        spec = CodeFamilySpec(ell, d, dim=k)
        lower_count, upper_count = bad_code_count_brackets(lspace, spec)
        ltotal = qbinom(lspace.n * lspace.m // ell, k, lspace.q**ell)
        lbracket, _ = sublinear_bracket(lspace, k, ell, d)
        assert 1 - Fraction(upper_count) / ltotal == lbracket.raw_lower
        assert 1 - Fraction(lower_count) / ltotal == lbracket.raw_upper


def test_bad_code_count_contains_exhaustive():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    lower_count, upper_count = bad_code_count_brackets(space, CodeFamilySpec(0, 2, size=2))
    hist = dict(subset_distance_histogram(space, 2))
    bad = sum(c for dist, c in hist.items() if dist <= 1)
    assert bad == 4  # the four pairs at Hamming distance one
    assert lower_count <= bad <= upper_count


def test_bad_code_count_d1_is_zero():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    assert bad_code_count_brackets(space, CodeFamilySpec(0, 1, size=2)) == (0, 0)
    lspace = AmbientSpace(2, 1, 2, 2, "hamming")
    assert bad_code_count_brackets(lspace, CodeFamilySpec(1, 1, dim=1)) == (0, 0)


def test_bracket_containment_small_sweep():
    # a slice of the desk grid: exact rational containment, no tolerance
    for q, n in ((2, 2), (2, 3)):
        for metric, t in (("hamming", 1), ("rank", 1)):
            space = AmbientSpace(q, 1, 1, n, metric, t=t)
            for size in (2, 3):
                for d in range(1, space.diameter + 2):
                    dens = exact_density(space, CodeFamilySpec(0, d, size=size))
                    bracket, _ = nonlinear_bracket(space, size, d)
                    assert bracket.lower <= dens <= bracket.upper
    for ell, s, n, metric, t in (
        (1, 2, 2, "hamming", 1),
        (1, 2, 2, "rank", 1),
        (2, 1, 2, "sumrank", 2),
    ):
        space = AmbientSpace(2, ell, s, n, metric, t=t)
        ns = n * s
        for k in range(1, ns + 1):
            for d in range(1, space.diameter + 2):
                dens = exact_density(space, CodeFamilySpec(ell, d, dim=k))
                bracket, _ = sublinear_bracket(space, k, ell, d)
                assert bracket.lower <= dens <= bracket.upper


def test_corrupted_bracket_fails_tight_case():
    # negative control: shaving the upper bound must break containment
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    dens = exact_density(space, CodeFamilySpec(0, 2, size=2))
    bracket, _ = nonlinear_bracket(space, 2, 2)
    corrupted_upper = bracket.upper - Fraction(1, 10**6)
    assert not (bracket.lower <= dens <= corrupted_upper)


def _order_check_values():
    # near 0, near 1 and in the middle, over short and long denominators;
    # near 1 the complements are the shorter numerators
    values = set()
    for den in (7, 2**61 - 1, 3**5000, 2 * 3**5000 + 1):
        half = den // 2
        for num in (0, 1, 2, 3**40, half - 1, half, half + 1, den - 3**40, den - 2, den - 1, den):
            if 0 <= num <= den:
                values.add(Fraction(num, den))
    return sorted(values)


def test_bracket_order_check_matches_fraction_comparison():
    values = _order_check_values()
    complements = 0
    for x, y in itertools.product(values, repeat=2):
        assert _at_most(x, y) == (x <= y), (x, y)
        if x <= y:  # equal endpoints included
            bracket = DensityBracket(x, y, x, y)
            assert bracket.contains(x) and bracket.contains(y)
        else:
            with pytest.raises(ValueError, match="lower <= upper"):
                DensityBracket(x, y, x, y)
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        complements += max(b - a, d - c).bit_length() < max(a, c).bit_length()
    assert complements > 100  # the complement comparison is exercised, not only the plain one


def test_bracket_with_upper_below_lower_is_refused():
    # a paper-scale bracket near 1, its bounds swapped: the complements of
    # both ends are far shorter than their 1992-bit numerators
    bracket, _ = nonlinear_bracket(AmbientSpace(2, 1, 1, 2000, "hamming"), 4, 3)
    assert bracket.raw_lower < bracket.raw_upper < 1
    assert 1 - bracket.lower < Fraction(1, 2**1900)
    _clamped(bracket.raw_lower, bracket.raw_upper)
    with pytest.raises(ValueError, match="lower <= upper"):
        _clamped(bracket.raw_upper, bracket.raw_lower)
    for lower, upper in ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1), 1 - Fraction(1, 3**5000))):
        with pytest.raises(ValueError, match="lower <= upper"):
            DensityBracket(lower, upper, lower, upper)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        CodeFamilySpec(0, 2, size=1)
    with pytest.raises(ValueError):
        CodeFamilySpec(1, 2)
    with pytest.raises(ValueError):
        CodeFamilySpec(0, 0, size=2)
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    with pytest.raises(ValueError):
        CodeFamilySpec(3, 2, dim=1).validate_for(space)  # 3 does not divide m=2
    with pytest.raises(ValueError):
        CodeFamilySpec(1, 9, dim=1).validate_for(space)  # d beyond diameter+1
