"""Weights, distances, exact ball volumes against brute-force counts, metric
reductions, and growth-profile convergence."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from codedensity.combinat import binom, compositions, is_prime, qbinom
from codedensity.fields import SubspaceBasis, build_tower, rref, sample_subspace
from codedensity.guards import ORACLE_SPACE, GuardExceeded, UnsupportedAsymptotics
from codedensity.harness import _criterion_volume_spaces, trial_generator
from codedensity.metrics import (
    AmbientSpace,
    GrowthProfile,
    _flat_weight_table,
    _rank_shells,
    _weight_distribution,
    _weights,
    _word_columns,
    ball_volume,
    ball_volume_oracle,
    distance,
    min_distance,
    projective_span,
    subtract,
    volume_growth,
    weight,
)

from helpers import codeword_from_int

PRIMES_7_TO_101 = [p for p in range(7, 102) if is_prime(p)]


def test_space_validation():
    with pytest.raises(ValueError):
        AmbientSpace(6, 1, 1, 2, "hamming")  # 6 is not a prime power
    with pytest.raises(ValueError):
        AmbientSpace(2, 1, 1, 3, "sumrank", t=2)  # t does not divide n
    with pytest.raises(ValueError):
        AmbientSpace(2, 1, 1, 3, "euclid")
    sp = AmbientSpace(4, 1, 1, 3, "hamming")  # prime powers fine for formulas
    assert sp.size == 64
    with pytest.raises(ValueError):
        weight(AmbientSpace(4, 1, 1, 2, "rank"), (1, 2))  # weights need prime q


def test_weight_examples():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sp = AmbientSpace(2, 1, 2, 2, metric, t=t)
        assert weight(sp, (0, 0)) == 0
    sp = AmbientSpace(2, 1, 2, 3, "hamming")
    g = 2  # a generator of the 4-element field
    assert weight(sp, (0, 1, g)) == 2
    sp_rank = AmbientSpace(2, 1, 2, 2, "rank")
    assert weight(sp_rank, (1, g)) == 2  # 1 and g are independent over F_2


def test_sumrank_unit_blocks_equal_hamming():
    sp_h = AmbientSpace(2, 1, 2, 2, "hamming")
    sp_s = AmbientSpace(2, 1, 2, 2, "sumrank", t=2)
    for word in itertools.product(range(4), repeat=2):
        assert weight(sp_s, word) == weight(sp_h, word)


def test_min_distance_nonlinear():
    sp = AmbientSpace(2, 1, 2, 2, "hamming")
    v = (1, 2)
    assert min_distance([(0, 0), v], sp) == weight(sp, v)
    full = list(itertools.product(range(4), repeat=2))
    assert min_distance(full, sp) == 1
    with pytest.raises(ValueError):
        min_distance([(0, 0)], sp)


def test_min_distance_linear_span_of_one_one():
    tower = build_tower(2, 1, 2)
    sp = AmbientSpace(2, 1, 2, 2, "hamming")
    reduced, pivots = rref([[1, 0, 1, 0]], tower)  # the word (1, 1)
    basis = SubspaceBasis(tuple(map(tuple, reduced)), tuple(pivots))
    assert min_distance(basis, sp, tower=tower) == 2
    with pytest.raises(ValueError):
        min_distance(basis, sp)  # tower required


@pytest.mark.parametrize("params", [(2, 2, 1), (3, 1, 2), (3, 2, 1)], ids=str)
def test_projective_span_is_one_vector_per_projective_class(params):
    # against every coefficient combination, formed with k_mul and k_add
    # cell by cell: the nonzero multiples of the yielded vectors are the
    # nonzero vectors of the row space, each once
    tower = build_tower(*params)
    q = tower.subfield_order
    gen = trial_generator(11, 0)
    for k in (1, 2, 3):
        for basis in (sample_subspace(gen, k, tower, 3) for _ in range(12)):
            span = list(projective_span(basis, tower))
            assert len(span) == len(set(span)) == (q**k - 1) // (q - 1)
            multiples = {tuple(tower.k_mul(c, x) for x in vec) for vec in span for c in range(1, q)}
            row_space = set()
            for coeffs in itertools.product(range(q), repeat=k):
                vec = [0] * len(basis.rows[0])
                for c, row in zip(coeffs, basis.rows):
                    vec = [tower.k_add(v, tower.k_mul(c, x)) for v, x in zip(vec, row)]
                row_space.add(tuple(vec))
            assert multiples == row_space - {(0,) * len(basis.rows[0])}, (params, basis)


def test_ball_volume_trivial_and_derived():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sp = AmbientSpace(2, 1, 2, 2, metric, t=t)
        assert ball_volume(sp, 0) == 1

    # brute-force oracles computed inline, independent of the closed forms
    sp = AmbientSpace(2, 1, 1, 3, "hamming")
    count = sum(
        1 for v in itertools.product(range(2), repeat=3) if sum(map(bool, v)) <= 1
    )
    assert ball_volume(sp, 1) == count == 4

    def rank2x2_at_most_1(a, b, c, d):
        # over the 2-element field: rank <= 1 iff a row is zero or rows agree
        top, bottom = (a, b), (c, d)
        return top == (0, 0) or bottom == (0, 0) or top == bottom

    low_rank = sum(
        1
        for a, b, c, d in itertools.product(range(2), repeat=4)
        if rank2x2_at_most_1(a, b, c, d)
    )
    sp_rank = AmbientSpace(2, 1, 2, 2, "rank")
    assert ball_volume(sp_rank, 1) == low_rank == 10

    sp_sr = AmbientSpace(2, 1, 2, 2, "sumrank", t=2)
    assert ball_volume(sp_sr, 1) == 7  # 1 + 2 blocks * 3 nonzero scalars


def test_ball_volume_full_radius_clamps():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sp = AmbientSpace(3, 1, 2, 2, metric, t=t)
        assert ball_volume(sp, sp.diameter) == sp.size
        assert ball_volume(sp, sp.diameter + 5) == sp.size


def test_ball_volume_matches_oracle_small_grid():
    for q in (2, 3):
        for m in (1, 2):
            for n in (1, 2, 3):
                spaces = [
                    AmbientSpace(q, 1, m, n, "hamming"),
                    AmbientSpace(q, 1, m, n, "rank"),
                ]
                for t in range(2, n + 1):
                    if n % t == 0:
                        spaces.append(AmbientSpace(q, 1, m, n, "sumrank", t=t))
                for sp in spaces:
                    if sp.size > 2**14:
                        continue
                    for r in range(sp.diameter + 1):
                        assert ball_volume(sp, r) == ball_volume_oracle(sp, r)


def _surjections(q: int, m: int, i: int) -> int:
    out = 1
    for j in range(i):
        out *= q**m - q**j
    return out


def _rank_shells_reference(q: int, m: int, n: int) -> list[int]:
    """Rank-weight counts of F_{q^m}^n, one qbinom per weight."""
    return [qbinom(n, i, q) * _surjections(q, m, i) for i in range(min(m, n) + 1)]


def _sumrank_shells_by_compositions(q: int, m: int, eta: int, t: int) -> list[int]:
    """Sum-rank weight counts by the composition walk: one product of block
    rank-shell sizes per split of the weight over the t blocks."""
    cap = min(m, eta)
    block = _rank_shells_reference(q, m, eta)
    shells = []
    for h in range(t * cap + 1):
        total = 0
        for split in compositions(h, t, cap):
            term = 1
            for u in split:
                term *= block[u]
            total += term
        shells.append(total)
    return shells


def test_ball_volume_matches_composition_walk():
    # every radius, one past the diameter too; an exact int, never a float
    for q, ell, s in itertools.product((2, 3, 4, 8, 9, 1009), (1, 2), (1, 2)):
        m = ell * s
        lengths = set()
        for t, eta in itertools.product(range(1, 7), range(1, 5)):
            lengths.add(t * eta)
            sp = AmbientSpace(q, ell, s, t * eta, "sumrank", t=t)
            shells = _sumrank_shells_by_compositions(q, m, eta, t)
            assert len(shells) == sp.diameter + 1
            for r in range(sp.diameter + 2):
                vol = ball_volume(sp, r)
                assert type(vol) is int and vol == sum(shells[: r + 1]), (sp, r)
        for n in sorted(lengths):
            sp = AmbientSpace(q, ell, s, n, "rank")
            shells = _rank_shells_reference(q, m, n)
            for r in range(sp.diameter + 2):
                vol = ball_volume(sp, r)
                assert type(vol) is int and vol == sum(shells[: r + 1]), (sp, r)


# ball_volume(F_{1009^4}^36, t = 9 blocks, r = 16), as the composition walk
# counted it over its 710 675 splits
SUMRANK_T9_R16 = int(
    "874020376957590573517751032554921911525812812800614838566719425968134519"
    "439704914867985499759285526034244178063617223676663588211326989929536673"
    "301249571167747485488845454987887173205060452186967019228899435156779233"
    "339804974776972271225810159187486860953807585660240592062094071617014038"
    "84220161"
)


def test_sumrank_ball_volume_at_many_blocks():
    sp9 = AmbientSpace(1009, 1, 4, 36, "sumrank", t=9)
    assert ball_volume(sp9, 16) == SUMRANK_T9_R16
    # weight t * 4 means every 4x4 block is invertible
    full_rank_block = _surjections(1009, 4, 4)
    for t in (9, 32):
        sp = AmbientSpace(1009, 1, 4, 4 * t, "sumrank", t=t)
        assert ball_volume(sp, sp.diameter) == sp.size
        assert ball_volume(sp, sp.diameter - 1) == sp.size - full_rank_block**t


def _shells_to_the_diameter(space: AmbientSpace) -> int:
    """Every weight shell of the space summed, as ball_volume summed them at
    the diameter before it returned q^(m n) there: the reference that keeps
    the last shell checked."""
    q, m, n, r = space.q, space.m, space.n, space.diameter
    if space.metric == "hamming":
        return sum(binom(n, i) * (q**m - 1) ** i for i in range(r + 1))
    if space.metric == "rank":
        return sum(_rank_shells(q, m, n, r))
    block = _rank_shells(q, m, space.eta, r)
    dist = [1]
    for _ in range(space.t):
        conv = [0] * min(len(dist) + len(block) - 1, r + 1)
        for i, a in enumerate(dist):
            for j, b in enumerate(block[: r + 1 - i]):
                conv[i + j] += a * b
        dist = conv
    return sum(dist)


def test_shells_sum_to_the_whole_space_at_the_diameter():
    spaces = _criterion_volume_spaces(ORACLE_SPACE)
    assert len(spaces) == 107
    spaces += [AmbientSpace(1009, 1, 4, 4 * t, "sumrank", t=t) for t in (9, 32)]
    for space in spaces:
        whole = ball_volume(space, space.diameter)
        assert _shells_to_the_diameter(space) == whole == space.size, space


def test_ball_volume_oracle_guard():
    sp = AmbientSpace(2, 1, 17, 1, "hamming")
    with pytest.raises(GuardExceeded) as err:
        ball_volume_oracle(sp, 1)
    assert (err.value.count, err.value.limit) == (2**17, ORACLE_SPACE)


def _check_table_against_weight(space: AmbientSpace) -> None:
    # the table, entry by entry, and the oracle's distribution, against the
    # scalar weight of codeword_from_int(v), the word of index v
    tower = build_tower(space.q, 1, space.m)
    table = _flat_weight_table(space)
    scalar = [weight(space, codeword_from_int(v, tower, space.n)) for v in range(space.size)]
    assert table.tolist() == scalar, space
    counts = [0] * (space.diameter + 1)
    for w in scalar:
        counts[w] += 1
    distribution = _weight_distribution.__wrapped__(space)
    assert distribution == tuple(counts) and all(type(c) is int for c in distribution)


SMALL_ORACLE_SPACES = _criterion_volume_spaces(2**10)


@pytest.mark.parametrize("space", SMALL_ORACLE_SPACES, ids=repr)
def test_weight_table_matches_weight_on_small_oracle_spaces(space):
    _check_table_against_weight(space)


@pytest.mark.nightly
def test_weight_table_matches_weight_on_every_oracle_space():
    spaces = _criterion_volume_spaces(ORACLE_SPACE)
    assert len(spaces) == 107
    for space in spaces:
        _check_table_against_weight(space)


@pytest.mark.parametrize(
    "space",
    [AmbientSpace(2, 1, 5, 14, "rank"), AmbientSpace(3, 1, 2, 21, "sumrank", t=3)],
    ids=repr,
)
def test_word_columns_split_indices_past_two_to_the_63(space):
    # 2^70 and 3^42 words: Python ints in an object array are split into
    # the coordinates of codeword_from_int, residues for p = 2 and base-p
    # digits otherwise, and weigh as the scalar weight does; indices that
    # fit int64 split the same way from an int64 array
    assert space.size > 2**64
    tower = build_tower(space.q, 1, space.m)
    gen = trial_generator(7, 0)
    big = [int.from_bytes(gen.bytes(12), "little") % space.size for _ in range(11)]
    values = np.array([space.size - 1, 2**63, *big, 0, 5]).reshape(3, 5)
    assert values.dtype == object and max(values.flat) >= 2**63
    cols = _word_columns(space, values)
    weights = _weights(space, cols.reshape(space.n, values.size, *cols.shape[3:]))
    for i, v in enumerate(values.flat):
        word = codeword_from_int(v, tower, space.n)
        for j, x in enumerate(word):
            got = cols[(j, *np.unravel_index(i, values.shape))]
            want = x if space.q == 2 else tower.digits(x)
            assert np.array_equal(got, want), (space, v, j)
        assert weights[i] == weight(space, word), (space, v)
    small = np.array([v for v in values.flat if v < 2**63], dtype=np.int64)
    index = [i for i, v in enumerate(values.flat) if v < 2**63]
    flat = cols.reshape(space.n, values.size, *cols.shape[3:])
    assert np.array_equal(_word_columns(space, small), flat[:, index])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_linearity_one_table_index_is_the_integer_word(q):
    # index v packs F_p-coordinates as sum_i vec[i] * p^i, which on a
    # linearity-1 tower is the word codeword_from_int(v)
    for m, n in ((1, 3), (2, 2), (3, 1)):
        tower = build_tower(q, 1, m)
        for v in range(q ** (m * n)):
            vec = tuple(v // q**i % q for i in range(m * n))
            assert tower.unflatten(vec, n) == codeword_from_int(v, tower, n), (q, m, n, v)


def test_hamming_oracle_over_prime_power_q():
    # q = 4, 8, 9 are read from the prime-field space of degree a*m
    for q, m, n in ((4, 1, 3), (4, 2, 2), (8, 1, 2), (8, 2, 1), (9, 1, 2), (9, 2, 1)):
        space = AmbientSpace(q, 1, m, n, "hamming")
        counts = [0] * (n + 1)
        for word in itertools.product(range(q**m), repeat=n):
            counts[weight(space, word)] += 1
        assert _weight_distribution.__wrapped__(space) == tuple(counts), space
        for r in range(n + 1):
            assert ball_volume_oracle(space, r) == ball_volume(space, r)


def test_ball_volume_monotone_in_radius():
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sp = AmbientSpace(3, 1, 2, 2, metric, t=t)
        vols = [ball_volume(sp, r) for r in range(sp.diameter + 1)]
        assert all(a < b for a, b in zip(vols, vols[1:]))


def test_metric_axioms_sampled():
    tower = build_tower(2, 1, 2)
    for metric, t in (("hamming", 1), ("rank", 1), ("sumrank", 2)):
        sp = AmbientSpace(2, 1, 2, 2, metric, t=t)
        gen = trial_generator(99, 0)
        size = sp.size
        for _ in range(10_000):
            x, y, z = (
                codeword_from_int(int(gen.integers(0, size)), tower, 2) for _ in range(3)
            )
            dxy = distance(sp, x, y)
            assert dxy == distance(sp, y, x)
            assert (dxy == 0) == (x == y)
            assert distance(sp, x, z) <= dxy + distance(sp, y, z)
            shifted = tuple(tower.add(a, b) for a, b in zip(x, z)), tuple(
                tower.add(a, b) for a, b in zip(y, z)
            )
            assert distance(sp, *shifted) == dxy


def test_reduction_identities_exact_volumes():
    for q, m, n in ((2, 1, 2), (2, 2, 2), (2, 2, 4), (3, 1, 3), (3, 2, 2)):
        rank_sp = AmbientSpace(q, 1, m, n, "rank")
        sr1 = AmbientSpace(q, 1, m, n, "sumrank", t=1)
        ham_sp = AmbientSpace(q, 1, m, n, "hamming")
        srn = AmbientSpace(q, 1, m, n, "sumrank", t=n)
        for r in range(rank_sp.diameter + 1):
            assert ball_volume(sr1, r) == ball_volume(rank_sp, r)
        for r in range(ham_sp.diameter + 1):
            assert ball_volume(srn, r) == ball_volume(ham_sp, r)


def test_reduction_identities_pointwise_weights():
    tower = build_tower(2, 1, 2)
    rank_sp = AmbientSpace(2, 1, 2, 2, "rank")
    sr1 = AmbientSpace(2, 1, 2, 2, "sumrank", t=1)
    ham_sp = AmbientSpace(2, 1, 2, 2, "hamming")
    srn = AmbientSpace(2, 1, 2, 2, "sumrank", t=2)
    for word in itertools.product(range(4), repeat=2):
        assert weight(sr1, word) == weight(rank_sp, word)
        assert weight(srn, word) == weight(ham_sp, word)


def test_growth_profile_examples():
    prof = volume_growth(AmbientSpace(2, 1, 3, 4, "hamming"), 1, "q")
    assert (prof.coefficient, prof.exp_intercept) == (4, 3)
    prof = volume_growth(AmbientSpace(2, 1, 3, 3, "rank"), 2, "q")
    assert (prof.coefficient, prof.exp_intercept) == (1, 8)
    prof = volume_growth(AmbientSpace(2, 1, 2, 4, "sumrank", t=2), 3, "q")
    assert (prof.coefficient, prof.exp_intercept) == (2, 7)


def test_growth_profile_product_and_quotient():
    a = GrowthProfile(Fraction(3), "n", Fraction(2), Fraction(-1), poly_degree=2)
    b = GrowthProfile(Fraction(1, 2), "n", Fraction(-1), Fraction(4), poly_degree=3)
    assert a * b == GrowthProfile(Fraction(3, 2), "n", Fraction(1), Fraction(3), poly_degree=5)
    assert a / b == GrowthProfile(Fraction(6), "n", Fraction(3), Fraction(-5), poly_degree=-1)
    with pytest.raises(ValueError, match="profiles along n and q do not combine"):
        a / GrowthProfile(Fraction(1), "q", Fraction(0), Fraction(1))


def test_growth_profile_unsupported_pairs():
    sp = AmbientSpace(2, 1, 2, 4, "sumrank", t=2)
    for growing in ("n", "ell", "s"):
        with pytest.raises(UnsupportedAsymptotics):
            volume_growth(sp, 2, growing)


def _deviations(mk_space, r):
    out = []
    for q in PRIMES_7_TO_101:
        sp = mk_space(q)
        prof = volume_growth(sp, r, "q")
        approx = prof.coefficient * Fraction(q) ** int(prof.exp_intercept)
        out.append((q, abs(Fraction(ball_volume(sp, r)) / approx - 1)))
    return out


def test_growth_ratio_convergence_envelope():
    cases = [
        (lambda q: AmbientSpace(q, 1, 3, 4, "hamming"), 1),
        (lambda q: AmbientSpace(q, 1, 3, 3, "rank"), 2),
        (lambda q: AmbientSpace(q, 1, 2, 4, "sumrank", t=2), 3),
    ]
    for mk_space, r in cases:
        devs = _deviations(mk_space, r)
        assert all(dev <= Fraction(32, q) for q, dev in devs)
        assert all(a[1] >= b[1] for a, b in zip(devs, devs[1:]))


def test_sumrank_exponent_form_distinguished_at_z_two():
    # remainder z = r mod t equal to 2 separates the z^2/t exponent from a
    # z/t variant; only the former converges
    devs = _deviations(lambda q: AmbientSpace(q, 1, 2, 6, "sumrank", t=3), 2)
    assert all(dev <= Fraction(32, q) for q, dev in devs)
    assert all(a[1] >= b[1] for a, b in zip(devs, devs[1:]))
    z, t, r, m, eta = 2, 3, 2, 2, 2
    alt_exponent = Fraction(z, t) - z + r * (m + eta) - Fraction(r * r, t)
    assert alt_exponent.denominator != 1  # the variant is not even integral
    q = 101
    v = ball_volume(AmbientSpace(q, 1, 2, 6, "sumrank", t=3), 2)
    # against the variant's exponent (rounded up), the ratio has clearly diverged
    assert v > 3 * q ** 5 * 20


def test_subtract_is_inverse_of_add():
    tower = build_tower(3, 1, 2)
    sp = AmbientSpace(3, 1, 2, 1, "hamming")
    for x in range(9):
        for y in range(9):
            diff = subtract(sp, (x,), (y,))
            assert tower.add(diff[0], y) == x
