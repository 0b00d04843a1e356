"""Field towers: construction invariants, coordinate maps, subspace
enumeration and sampling."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from codedensity.combinat import qbinom
from codedensity.fields import (
    SubspaceBasis,
    _PrimeField,
    _is_irreducible,
    build_tower,
    enumerate_subspaces,
    rref,
    sample_code_subset,
    sample_subspace,
    subspace_from_rows,
)
from codedensity.guards import GuardExceeded, Guards
from codedensity.harness import _linear_bracket_cases, trial_generator
from codedensity.metrics import AmbientSpace, _fp_rank, weight

CHI2_CRIT_DF2_999 = 13.8155  # chi-square 0.999 quantile, 2 degrees of freedom
CHI2_CRIT_DF5_999 = 20.5150  # chi-square 0.999 quantile, 5 degrees of freedom


def _poly_divides(a, b, p):
    """Trial division oracle over F_p: does a divide b?"""
    b = list(b)
    da, db = len(a) - 1, len(b) - 1
    inv = pow(a[-1], p - 2, p)
    while db >= da:
        if b[-1] == 0:
            b.pop()
            db -= 1
            continue
        f = b[-1] * inv % p
        for i in range(da + 1):
            b[db - da + i] = (b[db - da + i] - f * a[i]) % p
        b.pop()
        db -= 1
    return not any(b)


def _base_digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def test_modulus_is_irreducible_by_trial_division():
    for p, ell, s in ((2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 2, 2), (2, 1, 3)):
        tower = build_tower(p, ell, s)
        f = tower.modulus
        m = len(f) - 1
        assert m == ell * s
        for deg in range(1, m):
            for low in range(p**deg):
                g = _base_digits(low, p, deg) + (1,)
                if _poly_divides(g, f, p):
                    pytest.fail(f"modulus {f} divisible by {g}")


def test_tower_prime_field_cases():
    t = build_tower(2, 1, 2)
    assert t.m == 2
    assert sorted(t.k_to_residue(i) for i in range(t.subfield_order)) == [0, 1]
    t = build_tower(2, 2, 1)
    assert sorted(t.k_to_residue(i) for i in range(4)) == [0, 1, 2, 3]
    t = build_tower(3, 1, 2)
    fixed = [x for x in range(9) if t.is_subfield_element(x)]
    assert fixed == [0, 1, 2]


def test_tower_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_tower(4, 1, 2)
    with pytest.raises(ValueError):
        build_tower(2, 0, 2)
    with pytest.raises(GuardExceeded):
        build_tower(2, 5, 5)


def test_frobenius_fixed_count_is_subfield_order():
    for p, ell, s in ((2, 1, 3), (2, 3, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1), (2, 2, 3), (2, 4, 2)):
        tower = build_tower(p, ell, s)
        fixed = sum(1 for x in range(tower.order) if tower.is_subfield_element(x))
        assert fixed == p**ell


def test_field_axioms_small():
    t = build_tower(2, 2, 1)
    elems = range(t.order)
    for a in elems:
        for b in elems:
            assert t.mul(a, b) == t.mul(b, a)
            assert t.add(a, b) == t.add(b, a)
        if a:
            assert t.mul(a, t.inv(a)) == 1
    for a in elems:
        for b in elems:
            for c in elems:
                assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))


def test_rank_weight_invariant_under_scaling():
    t = build_tower(2, 1, 2)
    space = AmbientSpace(2, 1, 2, 2, "rank")
    for word in itertools.product(range(4), repeat=2):
        w = weight(space, word)
        for c in range(1, 4):
            scaled = tuple(t.mul(c, x) for x in word)
            assert weight(space, scaled) == w


def test_subfield_basis_is_frobenius_fixed():
    for p, ell, s in ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1)):
        tower = build_tower(p, ell, s)
        assert len(tower.subfield_basis) == ell
        for e in tower.subfield_basis:
            assert tower.is_subfield_element(e)
        assert len(tower.relative_basis) == s


# (tower, n) pairs: F_{p^ell}^(n*s) onto F_{p^m}^n for middle fields F_2,
# F_3, F_4 and F_8
_UNFLATTEN_CASES = (
    (build_tower(2, 1, 2), 2),
    (build_tower(3, 1, 2), 2),
    (build_tower(2, 2, 2), 1),
    (build_tower(2, 3, 2), 1),
)


def _middle_vectors(tower, n):
    return itertools.product(range(tower.subfield_order), repeat=n * tower.s)


def test_unflatten_is_a_bijection():
    for tower, n in _UNFLATTEN_CASES:
        images = {tower.unflatten(vec, n) for vec in _middle_vectors(tower, n)}
        assert images == set(itertools.product(range(tower.order), repeat=n)), (tower.p, tower.m, n)


def test_unflatten_is_additive():
    for tower, n in _UNFLATTEN_CASES:
        vecs = list(_middle_vectors(tower, n))
        for u in vecs[::3]:
            for v in vecs[::5]:
                total = tuple(tower.k_add(a, b) for a, b in zip(u, v))
                want = tuple(tower.add(x, y) for x, y in zip(tower.unflatten(u, n), tower.unflatten(v, n)))
                assert tower.unflatten(total, n) == want


def test_unflatten_is_subfield_linear():
    # scaling the coordinates by c in F_{p^ell} scales the word by c's residue
    for tower, n in _UNFLATTEN_CASES:
        for vec in _middle_vectors(tower, n):
            word = tower.unflatten(vec, n)
            for c in range(tower.subfield_order):
                scaled = tuple(tower.k_mul(c, v) for v in vec)
                want = tuple(tower.mul(tower.k_to_residue(c), x) for x in word)
                assert tower.unflatten(scaled, n) == want


def test_rref_canonical_for_scrambled_bases():
    t = build_tower(2, 1, 2)
    gen = trial_generator(7, 0)
    for _ in range(25):
        basis = sample_subspace(gen, 2, t, 2)
        # scramble with a random invertible coefficient matrix
        while True:
            coeffs = [[int(gen.integers(0, 2)) for _ in range(2)] for _ in range(2)]
            if (coeffs[0][0] * coeffs[1][1] - coeffs[0][1] * coeffs[1][0]) % 2:
                break
        rows = []
        for row_c in coeffs:
            vec = [0] * 4
            for c, brow in zip(row_c, basis.rows):
                if c:
                    vec = [t.k_add(v, b) for v, b in zip(vec, brow)]
            rows.append(vec)
        assert subspace_from_rows(rows, t) == basis


def _span(rows, ncols, field, order):
    """Every linear combination of the rows, by brute force."""
    span = {(0,) * ncols}
    for row in rows:
        span = {
            tuple(field.k_sub(v, field.k_mul(c, x)) for v, x in zip(vec, row))
            for vec in span
            for c in range(order)
        }
    return span


_RREF_FIELDS = [(_PrimeField(p), p) for p in (2, 3, 5)] + [
    (tower, tower.subfield_order) for tower in (build_tower(2, 2, 1), build_tower(3, 2, 1))
]


@pytest.mark.parametrize("field,order", _RREF_FIELDS, ids=["F2", "F3", "F5", "F4", "F9"])
def test_rref_invariants_and_row_space(field, order):
    rng = random.Random(order)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [
            [rng.randrange(order) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        reduced, pivots = rref(rows, field)
        assert len(reduced) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(reduced, pivots)):
            assert any(row)
            assert row[c] == field.one_index
            assert not any(row[:c])
            assert all(other[c] == 0 for j, other in enumerate(reduced) if j != i)
        assert _span(reduced, ncols, field, order) == _span(rows, ncols, field, order)
        if order == 2 and isinstance(field, _PrimeField):
            assert len(reduced) == _fp_rank([tuple(r) for r in rows], 2)


def test_tower_bases_are_pinned():
    # the bases a tower is built on fix every unflatten map, histogram and draw
    pinned = {
        (2, 2, 2): ([1, 6], [1, 2]),
        (3, 2, 1): ([1, 3], [1]),
        (2, 3, 2): ([1, 14, 22], [1, 2]),
    }
    for params, (subfield, relative) in pinned.items():
        tower = build_tower(*params)
        assert tower.subfield_basis == subfield
        assert tower.relative_basis == relative


def test_enumerate_subspaces_counts():
    cases = [(2, 1, 1), (3, 1, 1), (2, 2, 1)]  # middle-field orders 2, 3, 4
    for p, ell, s in cases:
        tower = build_tower(p, ell, s)
        base = tower.subfield_order
        for big_n in range(1, 7):
            for k in range(0, big_n + 1):
                count = sum(1 for _ in enumerate_subspaces(k, tower, big_n))
                assert count == qbinom(big_n, k, base)


def test_enumerate_subspaces_unique_and_rank():
    tower = build_tower(2, 1, 2)
    seen = set()
    for basis in enumerate_subspaces(2, tower, 2):
        assert basis.dim == 2
        reduced, pivots = rref([list(r) for r in basis.rows], tower)
        assert tuple(tuple(r) for r in reduced) == basis.rows
        assert tuple(pivots) == basis.pivots
        seen.add(basis.rows)
    assert len(seen) == qbinom(4, 2, 2)


def test_enumerate_subspaces_zero_dim():
    tower = build_tower(2, 1, 1)
    assert list(enumerate_subspaces(0, tower, 3)) == [SubspaceBasis((), ())]


def test_enumerate_subspaces_guard():
    # a generator: the call itself does no work, the first next() refuses
    subspaces = enumerate_subspaces(8, build_tower(2, 1, 1), 16, Guards(enumeration=10))
    with pytest.raises(GuardExceeded) as err:
        next(subspaces)
    assert err.value.count == qbinom(16, 8, 2)


def _enumerate_subspaces_stepwise(k, tower, n):
    """The enumerator as first written, kept as the reference: one k x ns
    RREF template per pivot profile, and one assignment of all its free
    cells at a time, row 1's cells slowest."""
    ns = n * tower.s
    if k == 0:
        yield SubspaceBasis((), ())
        return
    q_range = range(tower.subfield_order)
    for pivots in itertools.combinations(range(ns), k):
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, ns)
            if j not in pivots
        ]
        base = [[0] * ns for _ in range(k)]
        for i, pc in enumerate(pivots):
            base[i][pc] = tower.one_index
        for assignment in itertools.product(q_range, repeat=len(free_cells)):
            rows = [row[:] for row in base]
            for (i, j), val in zip(free_cells, assignment):
                rows[i][j] = val
            yield SubspaceBasis(tuple(tuple(r) for r in rows), tuple(pivots))


def _assert_same_sequence(k, tower, n):
    count = 0
    for fast, slow in itertools.zip_longest(
        enumerate_subspaces(k, tower, n), _enumerate_subspaces_stepwise(k, tower, n)
    ):
        assert fast == slow, (tower.p, tower.ell, tower.s, n, k, count)
        count += 1
    assert count == qbinom(n * tower.s, k, tower.subfield_order)


def test_enumerator_matches_stepwise_on_the_desk_grid():
    # every (tower, n, k) the desk bracket grid enumerates, in the same order
    enumerations = {
        (space.q, spec.linearity, space.m // spec.linearity, space.n, spec.dim)
        for space, spec in _linear_bracket_cases()
    }
    assert len(enumerations) == 35
    for p, ell, s, n, k in sorted(enumerations):
        _assert_same_sequence(k, build_tower(p, ell, s), n)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_enumerator_matches_stepwise_over_odd_primes(p, ell):
    tower = build_tower(p, ell, 1)
    cases = 0
    for n in range(1, 7):
        for k in range(n + 1):
            # k = 0 and k = n (one subspace each) at every n
            if k in (0, n) or qbinom(n, k, tower.subfield_order) <= 3000:
                _assert_same_sequence(k, tower, n)
                cases += 1
    assert cases > 12  # more than the k = 0 and k = n cases


def test_enumerator_keeps_the_first_row_lazy():
    # k = 1 on F_4^10: the first pivot profile alone has 4^9 first rows,
    # about 34 MB if built as a list; generated lazily the walk stays flat
    tower = build_tower(2, 2, 1)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_subspaces(1, tower, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == qbinom(10, 1, 4) == 349_525
    assert peak < 1 << 20, peak


def test_sample_subspace_full_space_and_rank():
    tower = build_tower(2, 1, 2)
    gen = trial_generator(11, 0)
    full = sample_subspace(gen, 4, tower, 2)
    assert full.dim == 4
    assert full.pivots == (0, 1, 2, 3)
    for trial in range(50):
        basis = sample_subspace(trial_generator(11, trial), 2, tower, 2)
        assert basis.dim == 2


def test_sample_subspace_uniform_chi_square():
    # three lines in F_2^2: uniform within the 0.999 chi-square bound and
    # within 3 sigma per cell, at a fixed seed
    tower = build_tower(2, 1, 2)
    draws = 30_000
    counts: dict[tuple, int] = {}
    for i in range(draws):
        basis = sample_subspace(trial_generator(123, i), 1, tower, 1)
        counts[basis.rows] = counts.get(basis.rows, 0) + 1
    assert len(counts) == 3
    expected = draws / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= CHI2_CRIT_DF2_999
    sigma = (draws * (1 / 3) * (2 / 3)) ** 0.5
    assert all(abs(c - expected) <= 3 * sigma for c in counts.values())


def test_sample_code_subset_contract():
    tower = build_tower(2, 1, 2)
    gen = trial_generator(5, 0)
    words = sample_code_subset(gen, 5, tower, 2)
    assert len(words) == len(set(words)) == 5
    full = sample_code_subset(gen, 16, tower, 2)
    assert len(full) == 16


def test_sample_code_subset_uniform_pairs_chi_square():
    # six 2-subsets of a 4-element space, 30k draws, fixed seed
    tower = build_tower(2, 1, 1)
    draws = 30_000
    counts: dict[tuple, int] = {}
    for i in range(draws):
        words = sample_code_subset(trial_generator(321, i), 2, tower, 2)
        counts[words] = counts.get(words, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= CHI2_CRIT_DF5_999


def test_sample_code_subset_rejects_bad_size():
    tower = build_tower(2, 1, 1)
    with pytest.raises(ValueError):
        sample_code_subset(trial_generator(1, 0), 1, tower, 2)
    with pytest.raises(ValueError):
        sample_code_subset(trial_generator(1, 0), 17, tower, 2)


def test_irreducibility_test_against_known_polynomials():
    # x^2 + x + 1 irreducible over F_2; x^2 + 1 = (x+1)^2 is not
    assert _is_irreducible((1, 1, 1), 2)
    assert not _is_irreducible((1, 0, 1), 2)
    # x^2 + 1 is irreducible over F_3
    assert _is_irreducible((1, 0, 1), 3)
