"""Asymptotic classification: the contract verdicts, threshold formulas,
region grid, and agreement between the generic comparison and the
closed-form thresholds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from codedensity.classifier import (
    DENSE,
    NOT_DENSE,
    SPARSE,
    UNKNOWN,
    Classification,
    Scenario,
    classify,
    instantiate,
    msrd_eta_region,
    msrd_theta,
    ratio_probe,
    specialized_verdict,
)
from codedensity.combinat import binom, is_prime, qbinom
from codedensity.guards import UnsupportedAsymptotics

PRIMES_TO_1009 = [p for p in range(2, 1010) if is_prime(p)]


def test_mds_linear_dense_as_q_grows():
    for ell, s in ((1, 2), (2, 1), (2, 3)):
        sc = Scenario("hamming", "q", "extremal", 2, ell=ell, n=4, s=s)
        assert classify(sc).verdict == DENSE


def test_mrd_threshold_cases_as_q_grows():
    sparse = Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=4)
    assert classify(sparse).verdict == SPARSE  # (d-1)(n-d+1) = 4 > 1
    dense = Scenario("rank", "q", "extremal", 2, ell=3, n=3, s=1)
    assert classify(dense).verdict == DENSE  # (d-1)(n-d+1) = 2 < 3
    tie = Scenario("rank", "q", "extremal", 2, ell=2, n=3, s=2)
    out = classify(tie)
    assert (out.verdict, out.upper_bound) == (NOT_DENSE, Fraction(1, 2))


def test_nonlinear_extremal_sparse_as_q_grows():
    assert classify(Scenario("hamming", "q", "extremal", 2, ell=0, n=3, s=1)).verdict == SPARSE
    assert classify(Scenario("rank", "q", "extremal", 2, ell=0, n=3, s=3)).verdict == SPARSE
    assert (
        classify(Scenario("sumrank", "q", "extremal", 2, ell=0, s=2, t=2, eta=2)).verdict
        == SPARSE
    )


def test_msrd_table_rows():
    row1 = Scenario("sumrank", "q", "extremal", 5, ell=1, s=1, t=10, eta=1)
    assert classify(row1).verdict == DENSE
    for t in range(1, 11):
        row2 = Scenario("sumrank", "q", "extremal", 2, ell=1, s=2, t=t, eta=2)
        assert classify(row2).verdict == NOT_DENSE
    for eta in (2, 3, 4):
        row3 = Scenario("sumrank", "q", "extremal", 5, ell=1, s=eta, t=10, eta=eta)
        assert classify(row3).verdict == SPARSE
    for t in range(1, 11):
        row4 = Scenario("sumrank", "q", "extremal", 3, ell=1, s=3, t=t, eta=3)
        assert classify(row4).verdict == SPARSE


def test_not_dense_closed_forms():
    out = classify(Scenario("hamming", "s", "extremal", 2, ell=1, q=2, n=4))
    assert out.upper_bound == Fraction(1, 3)  # 1/(1 + binom(4,1) * 2^-1)
    out = classify(Scenario("rank", "s", "extremal", 2, ell=1, q=2, n=3))
    assert out.upper_bound == Fraction(2, 9)  # q^ell / (q^ell + [3,1]_2)
    out = classify(Scenario("rank", "n", "extremal", 2, ell=1, q=2, s=2))
    assert out.upper_bound == Fraction(1, 1 + Fraction(qbinom(2, 1, 2), 2**2))
    # closed forms on further parameters, as exact rationals
    for q, n, d, ell in ((3, 5, 3, 1), (2, 4, 2, 2)):
        out = classify(Scenario("hamming", "s", "extremal", d, ell=ell, q=q, n=n))
        assert out.upper_bound == 1 / (1 + Fraction(binom(n, d - 1), q**ell))
        out = classify(Scenario("rank", "s", "extremal", d, ell=ell, q=q, n=n))
        assert out.upper_bound == Fraction(q**ell, q**ell + qbinom(n, d - 1, q))
    for q, s, d, ell in ((2, 3, 2, 1), (3, 2, 3, 2)):
        m = ell * s
        out = classify(Scenario("rank", "n", "extremal", d, ell=ell, q=q, s=s))
        assert out.upper_bound == 1 / (1 + Fraction(qbinom(m, d - 1, q), q ** (2 * ell)))


def test_mrd_dense_as_ell_grows():
    assert classify(Scenario("rank", "ell", "extremal", 2, ell=None, q=2, n=3, s=1)).verdict == DENSE
    assert classify(Scenario("hamming", "ell", "extremal", 3, ell=None, q=3, n=4, s=2)).verdict == DENSE


def test_mds_sparse_as_n_grows():
    assert classify(Scenario("hamming", "n", "extremal", 2, ell=1, q=2, s=1)).verdict == SPARSE
    assert classify(Scenario("hamming", "n", "extremal", 3, ell=2, q=2, s=2)).verdict == SPARSE


def test_nonlinear_extremal_sparse_as_n_grows():
    assert classify(Scenario("hamming", "n", "extremal", 2, ell=0, q=2, s=1)).verdict == SPARSE
    assert classify(Scenario("rank", "n", "extremal", 2, ell=0, q=2, s=3)).verdict == SPARSE


def test_gv_verdicts():
    assert classify(Scenario("hamming", "q", "gv", 2, ell=0, n=3, s=1)).verdict == SPARSE
    assert classify(Scenario("hamming", "n", "gv", 2, ell=0, q=2, s=1)).verdict == SPARSE
    assert classify(Scenario("hamming", "q", "gv", 2, ell=1, n=3, s=1)).verdict == DENSE
    assert classify(Scenario("rank", "ell", "gv", 2, ell=None, q=2, n=3, s=1)).verdict == DENSE
    out = classify(Scenario("hamming", "n", "gv", 2, ell=1, q=2, s=1))
    assert (out.verdict, out.upper_bound) == (NOT_DENSE, Fraction(2, 3))
    out = classify(Scenario("rank", "s", "gv", 2, ell=2, q=2, n=3))
    assert (out.verdict, out.upper_bound) == (NOT_DENSE, Fraction(4, 5))


def test_distance_one_is_always_dense():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sc = Scenario(metric, "q", "extremal", 1, ell=1, n=4, s=2, t=t)
        assert classify(sc).verdict == DENSE


def test_sumrank_other_parameters_unknown():
    for growing, fixed in (("n", {"q": 2, "s": 1}), ("s", {"q": 2, "n": 4}), ("ell", {"q": 2, "n": 4, "s": 1})):
        kwargs = {"ell": 1 if growing != "ell" else None, "t": 2, **fixed}
        sc = Scenario("sumrank", growing, "extremal", 2, **kwargs)
        assert classify(sc).verdict == UNKNOWN


def test_nonlinear_unsupported_parameters_raise():
    with pytest.raises(UnsupportedAsymptotics):
        classify(Scenario("hamming", "s", "extremal", 2, ell=0, q=2, n=3))
    # a nonlinear family cannot send the linearity degree to infinity at all
    with pytest.raises(ValueError):
        Scenario("hamming", "ell", "extremal", 2, ell=0, q=2, n=3, s=1)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("hamming", "q", "extremal", 2, ell=1, q=2, n=3, s=1)  # q fixed and growing
    with pytest.raises(ValueError):
        Scenario("hamming", "n", "extremal", 2, ell=1, q=2, s=1, n=4)
    with pytest.raises(ValueError):
        Scenario("hamming", "q", "dimension", 2, ell=0, n=3, s=1)  # nonlinear dimension
    with pytest.raises(ValueError):
        Scenario("hamming", "q", "cardinality", 2, ell=1, n=3, s=1)  # linear cardinality
    with pytest.raises(ValueError):
        Scenario("sumrank", "q", "extremal", 2, ell=1, n=3, s=1, t=2)  # t does not divide n
    with pytest.raises(ValueError):
        Scenario("sumrank", "q", "extremal", 2, ell=1, n=6, s=1, t=2, eta=2)  # n != eta*t
    for metric in ("hamming", "rank"):  # blocks only in sum-rank, with n fixed or growing
        for growing, fixed in (("q", {"n": 4}), ("n", {"q": 2})):
            with pytest.raises(ValueError, match="only meaningful for the sum-rank metric"):
                Scenario(metric, growing, "extremal", 2, ell=1, s=1, t=2, **fixed)


@pytest.mark.parametrize("coeff", [Fraction(-1), Fraction(0)])
def test_cardinality_coefficient_must_be_positive(coeff):
    with pytest.raises(ValueError, match="cardinality coefficient must be positive"):
        Scenario("hamming", "q", "cardinality", 2, ell=0, n=4, s=1, card_coeff=coeff)


def test_eta_is_rejected_when_n_grows():
    with pytest.raises(ValueError, match="leave it unset when n grows"):
        Scenario("hamming", "n", "extremal", 2, ell=1, q=2, s=1, eta=7)


def test_explicit_dimension_family():
    # constant k = ns: volume exponent (d-1)m = 1 ties ell(ns+1-k) = 1, so the
    # limiting ratio is binom(2,1) = 2 and the family is not dense
    sc = Scenario(
        "hamming", "q", "dimension", 2, ell=1, n=2, s=1, dim_intercept=Fraction(2)
    )
    out = classify(sc)
    assert (out.verdict, out.upper_bound) == (NOT_DENSE, Fraction(1, 3))
    # k one below the ambient dimension leaves room: dense
    sc = Scenario(
        "hamming", "q", "dimension", 2, ell=1, n=3, s=1, dim_intercept=Fraction(2)
    )
    assert classify(sc).verdict == DENSE
    # an affine dimension k(n) = n - 1 over growing n (m = 1, d = 2): the
    # comparison exponent 1 + 2*... stays affine while the volume grows
    # polynomially at slope zero, so the verdict is sparse
    sc = Scenario(
        "hamming",
        "n",
        "dimension",
        2,
        ell=1,
        q=2,
        s=1,
        dim_slope=Fraction(1),
        dim_intercept=Fraction(-1),
    )
    assert classify(sc).verdict == SPARSE


def _ratio_witness(coeff, deg, slope, intercept, limit=None):
    witness = {
        "ratio_coefficient": coeff,
        "ratio_poly_degree": deg,
        "ratio_exponent_slope": slope,
        "ratio_exponent_intercept": intercept,
    }
    if limit is not None:
        witness["limit_constant"] = limit
    return witness


_ELL = "exponent comparison, linear, growing ell"


@pytest.mark.parametrize(
    "sc, expected",
    [
        (
            Scenario("hamming", "ell", "dimension", 2, ell=None, q=2, n=3, s=1, dim_intercept=Fraction(2)),
            Classification(DENSE, _ELL, witness=_ratio_witness("3", "0", "-1", "0")),
        ),
        (
            Scenario("hamming", "ell", "dimension", 2, ell=None, q=2, n=3, s=1, dim_intercept=Fraction(3)),
            Classification(NOT_DENSE, _ELL, Fraction(1, 4), _ratio_witness("3", "0", "0", "0", "3")),
        ),
        (
            Scenario("rank", "ell", "dimension", 3, ell=None, q=3, n=4, s=2, dim_intercept=Fraction(5)),
            Classification(NOT_DENSE, _ELL, Fraction(1, 131), _ratio_witness("130", "0", "0", "0", "130")),
        ),
        (
            Scenario("rank", "ell", "dimension", 2, ell=None, q=2, n=3, s=1, dim_intercept=Fraction(2)),
            Classification(DENSE, _ELL, witness=_ratio_witness("7", "0", "-1", "0")),
        ),
        (
            Scenario("hamming", "ell", "gv", 2, ell=None, q=2, n=3, s=1),
            Classification(DENSE, _ELL, witness=_ratio_witness("1", "0", "-1", "0")),
        ),
        (
            Scenario("hamming", "ell", "extremal", 2, ell=None, q=2, n=3, s=1),
            Classification(DENSE, _ELL, witness=_ratio_witness("3", "0", "-1", "0")),
        ),
        (
            Scenario("hamming", "q", "gv", 2, ell=2, n=3, s=1),
            Classification(
                DENSE,
                "exponent comparison, linear, Gilbert-Varshamov family",
                witness=_ratio_witness("1", "0", "0", "-2"),
            ),
        ),
        (
            Scenario("rank", "n", "dimension", 2, ell=2, q=2, s=2, dim_slope=Fraction(1), dim_intercept=Fraction(1)),
            Classification(
                DENSE, "exponent comparison, linear, growing n", witness=_ratio_witness("15", "0", "-1", "0")
            ),
        ),
        (
            Scenario("hamming", "s", "dimension", 2, ell=1, q=3, n=3, dim_slope=Fraction(2)),
            Classification(
                NOT_DENSE,
                "exponent comparison, linear, growing s",
                Fraction(1, 2),
                _ratio_witness("3", "0", "0", "-1", "1"),
            ),
        ),
    ],
)
def test_linear_comparison_classifications_are_pinned(sc, expected):
    got = classify(sc)
    assert got == expected
    assert list(got.witness) == list(expected.witness)


@pytest.mark.parametrize(
    "sc, message",
    [
        (
            Scenario("hamming", "ell", "dimension", 2, ell=None, q=2, n=3, s=1, dim_slope=Fraction(1)),
            "growing ell needs a constant dimension k",
        ),
        (
            Scenario("hamming", "ell", "dimension", 2, ell=None, q=2, n=3, s=1, dim_intercept=Fraction(4)),
            "k=4 out of range [1, 3]",
        ),
        # d > n is checked before the dimension
        (
            Scenario("rank", "ell", "dimension", 3, ell=None, q=2, n=2, s=1, dim_slope=Fraction(1)),
            "d=3 exceeds the eventual diameter n=2",
        ),
        (
            Scenario("rank", "ell", "extremal", 3, ell=None, q=2, n=2, s=1),
            "d=3 exceeds the eventual diameter n=2",
        ),
    ],
)
def test_growing_ell_rejections_are_pinned(sc, message):
    with pytest.raises(ValueError) as exc:
        classify(sc)
    assert str(exc.value) == message


def test_msrd_theta_values():
    assert msrd_theta(2, 2, 2, 4) == 1
    for t in range(2, 7):
        assert msrd_theta(5, 2, t, 2) == 1  # min(m,eta) - 1 at d=2
    assert msrd_theta(1, 1, 3, 4) == 0
    assert msrd_theta(1, 1, 10, 5) == 0
    with pytest.raises(ValueError):
        msrd_theta(2, 2, 2, 6)  # beyond diameter + 1
    with pytest.raises(ValueError):
        msrd_theta(2, 2, 2, 1)


def test_region_grid_expected_cells():
    dense_cells = {(1, 1), (2, 1), (3, 1)}
    sparse_cells = {(t, 3) for t in range(1, 8)} | {(t, 4) for t in range(1, 11)}
    grid = {(t, e): lab for t, e, lab in msrd_eta_region(10, 4)}
    for cell, lab in grid.items():
        if cell in dense_cells:
            assert lab == DENSE, cell
        elif cell in sparse_cells:
            assert lab == SPARSE, cell
        else:
            assert lab == "unclassified", cell


def test_region_cells_agree_with_classifier():
    # each corollary-decided cell must agree with classify for every
    # admissible d at that (t, eta) with m = eta
    for t, eta, lab in msrd_eta_region(6, 3):
        if lab == "unclassified":
            continue
        for d in range(2, t * eta + 1):
            sc = Scenario("sumrank", "q", "extremal", d, ell=1, s=eta, t=t, eta=eta)
            assert classify(sc).verdict == lab, (t, eta, d)


def test_prime_field_sumrank_thresholds_implied():
    # (d-1)(n-d+1) < t forces dense; t + t^2/4 < (d-1)(n-d+1) forces sparse
    for t in range(1, 7):
        for eta in range(1, 4):
            n = eta * t
            m = eta
            for d in range(2, t * eta + 1):
                sc = Scenario("sumrank", "q", "extremal", d, ell=1, s=m, t=t, eta=eta)
                verdict = classify(sc).verdict
                work = (d - 1) * (n - d + 1)
                if work < t:
                    assert verdict == DENSE, (t, eta, d)
                if t + Fraction(t * t, 4) < work:
                    assert verdict == SPARSE, (t, eta, d)


def _extremal_scenarios_for_crosscheck():
    import itertools

    grid_n, grid_s, grid_ell = range(2, 6), range(1, 4), range(1, 4)
    for metric in ("hamming", "rank"):
        for n, s, ell in itertools.product(grid_n, grid_s, grid_ell):
            d_hi = n if metric == "hamming" else min(n, ell * s)
            for d in range(2, d_hi + 1):
                yield Scenario(metric, "q", "extremal", d, ell=ell, n=n, s=s)
        for s, ell in itertools.product(grid_s, grid_ell):
            d_hi = 5 if metric == "hamming" else ell * s
            for d in range(2, d_hi + 1):
                yield Scenario(metric, "n", "extremal", d, ell=ell, q=2, s=s)
        for n, s in itertools.product(grid_n, grid_s):
            for d in range(2, n + 1):
                yield Scenario(metric, "ell", "extremal", d, ell=None, q=2, n=n, s=s)
        for n, ell in itertools.product(grid_n, grid_ell):
            for d in range(2, n + 1):
                yield Scenario(metric, "s", "extremal", d, ell=ell, q=2, n=n)
    # sum-rank: growing q only, eta <= m
    for t in range(1, 6):
        for eta in range(1, 4):
            n = eta * t
            if n > 6:
                continue
            for s, ell in itertools.product(grid_s, grid_ell):
                m = ell * s
                if eta > m:
                    continue
                for d in range(2, t * min(m, eta) + 1):
                    yield Scenario(
                        "sumrank", "q", "extremal", d, ell=ell, s=s, t=t, eta=eta
                    )


def test_generic_agrees_with_specialized_thresholds():
    checked = 0
    for sc in _extremal_scenarios_for_crosscheck():
        expected = specialized_verdict(sc)
        if expected is None:
            continue
        try:
            got = classify(sc)
        except ValueError:
            continue
        checked += 1
        assert got.verdict == expected.verdict, (sc, got, expected)
        if expected.verdict == NOT_DENSE:
            assert got.upper_bound == expected.upper_bound, (sc, got, expected)
    assert checked > 300


def test_nonlinear_gv_generic_agrees_with_specialized():
    # wherever classify answers a nonlinear GV scenario it agrees with the
    # closed form; a family whose d - 1 reaches the eventual diameter is
    # refused instead of answered
    import itertools

    checked = refused = 0
    for metric, s, d in itertools.product(("hamming", "rank"), range(1, 5), range(2, 9)):
        scenarios = [Scenario(metric, "n", "gv", d, ell=0, q=q, s=s) for q in (2, 3, 4)]
        scenarios += [Scenario(metric, "q", "gv", d, ell=0, n=n, s=s) for n in range(1, 5)]
        for sc in scenarios:
            try:
                got = classify(sc)
            except ValueError:
                refused += 1
                continue
            expected = specialized_verdict(sc)
            if expected is None:
                continue
            checked += 1
            assert got.verdict == expected.verdict, (sc, got, expected)
            assert got.upper_bound == expected.upper_bound, (sc, got, expected)
    assert checked == 140 and refused > 0


def test_quasi_sumrank_branch_agreement():
    # eta above m exercises the quasi dimension k = floor(eta(tm-d+1)/ell);
    # theta - r = 1 - 1 = 0 below ell = 2, so both routes say dense
    sc = Scenario("sumrank", "q", "extremal", 2, ell=2, s=1, t=2, eta=3)
    got = classify(sc)
    expected = specialized_verdict(sc)
    assert got.verdict == expected.verdict == DENSE
    # nonlinear extremal with eta above m stays sparse
    assert (
        classify(Scenario("sumrank", "q", "extremal", 2, ell=0, s=1, t=2, eta=2)).verdict
        == SPARSE
    )


def test_quasi_branches_are_flagged():
    quasi_rank = Scenario("rank", "q", "extremal", 2, ell=2, n=5, s=1)
    out = specialized_verdict(quasi_rank)
    assert out is not None and out.notes
    quasi_msrd = Scenario("sumrank", "q", "extremal", 2, ell=4, s=1, t=2, eta=5)
    # eta > m = 4: quasi branch
    out = specialized_verdict(quasi_msrd)
    assert out is not None and out.notes


def test_ratio_probe_dense_and_sparse_trends():
    dense_sc = Scenario("hamming", "q", "extremal", 2, ell=1, n=4, s=2)
    rows = ratio_probe(dense_sc, PRIMES_TO_1009)
    values = [rho for _, rho in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 100)

    sparse_sc = Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=4)
    rows = ratio_probe(sparse_sc, PRIMES_TO_1009)
    inverted = [1 / rho for _, rho in rows]
    assert all(a > b for a, b in zip(inverted, inverted[1:]))
    assert inverted[-1] < Fraction(1, 100)


def test_ratio_probe_not_dense_approaches_constant():
    tie = Scenario("rank", "q", "extremal", 2, ell=2, n=3, s=2)
    out = classify(tie)
    c = Fraction(out.witness["limit_constant"])
    rows = ratio_probe(tie, [241, 251, 257])
    last = rows[-1][1]
    assert abs(last - c) <= c / 10


def test_instantiate_rejects_bad_probe():
    sc = Scenario("hamming", "q", "extremal", 2, ell=1, n=4, s=2)
    with pytest.raises(ValueError):
        instantiate(sc, 6)  # not a prime power
    grow_n = Scenario("hamming", "n", "extremal", 3, ell=1, q=2, s=1)
    with pytest.raises(ValueError):
        instantiate(grow_n, 2)  # d exceeds the diameter at this probe


def test_inadmissible_distance_raises():
    with pytest.raises(ValueError):
        classify(Scenario("hamming", "q", "extremal", 4, ell=1, n=3, s=1))  # d > diameter
    with pytest.raises(ValueError):
        classify(Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=2))  # d > min(n, m)
