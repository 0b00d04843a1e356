"""The three translation-invariant metrics and their exact ball volumes.

An :class:`AmbientSpace` fixes (q, ell, s, n) with m = ell*s and one of the
metrics Hamming, rank, or sum-rank with t equal blocks (t | n, block length
eta = n/t).  Weights act on codewords over F_{q^m} encoded as int tuples;
rank weights expand coordinates to base-q digit columns, so they require a
prime q (the formula-only operations accept any prime power).

A word has one index: the integer whose j-th base-q^m digit is the word's
j-th coordinate, least significant first.  Every word-level job weighs words
with one numpy kernel, ``_weights``, over coordinate columns: residues for
p = 2, base-p digit arrays otherwise, and ``_word_columns`` is the one split
of word indices into those columns.  ``_flat_weight_table`` weighs every
word of a space, indexed by word; the volume oracle counts that table, and
``harness`` scores linear codes, counts exhaustive subset histograms and
checks the metric reductions with it.  Nonlinear codes drawn at random, on
spaces far beyond any table, are scored by applying the kernel to the pair
differences of their words.  A metric is translation-invariant,
d(x, y) = w(x - y), so the weights of single words serve pair distances
too.  The scalar ``weight``, ``subtract``, ``distance`` and
``min_distance`` are the public API and the reference the tests check the
kernel against; no job of the library calls them.

``ball_volume`` is the closed-form exact count; ``ball_volume_oracle``
recounts from the weight table and exists purely to check the former.  Rank
volumes sum the rank shells N_i = qbinom(n, i, q) prod_{j<i} (q^m - q^j),
the number of vectors of rank weight i.  Sum-rank volumes take one block's
shells at length eta, convolve them t times truncated at the radius, and sum
the result, so they cost polynomial time in t and the radius.
``volume_growth`` returns the leading coefficient and exponent of the ball
volume as one parameter grows, as exact rationals; the classifier compares
these symbolically, never through floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import binom, is_prime, prime_power, qbinom
import numpy as np

from .fields import Codeword, FieldTower, SubspaceBasis, _PrimeField, rref
from .guards import ORACLE_SPACE, GuardExceeded, UnsupportedAsymptotics

HAMMING = "hamming"
RANK = "rank"
SUMRANK = "sumrank"
METRICS = (HAMMING, RANK, SUMRANK)


@dataclass(frozen=True)
class AmbientSpace:
    """F_{q^m}^n with one of the three metrics; m = ell * s, eta = n / t."""

    q: int
    ell: int
    s: int
    n: int
    metric: str
    t: int = 1

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {METRICS}")
        if prime_power(self.q) is None:
            raise ValueError(f"q must be a prime power >= 2, got {self.q}")
        if self.ell < 1 or self.s < 1 or self.n < 1:
            raise ValueError("ell, s, n must be positive")
        if self.metric == SUMRANK:
            if self.t < 1 or self.n % self.t:
                raise ValueError(f"t={self.t} must divide n={self.n}")
        elif self.t != 1:
            raise ValueError(f"t is only meaningful for the sum-rank metric")

    @property
    def m(self) -> int:
        return self.ell * self.s

    @property
    def eta(self) -> int:
        if self.metric != SUMRANK:
            raise ValueError("eta is only defined for the sum-rank metric")
        return self.n // self.t

    @property
    def size(self) -> int:
        return self.q ** (self.m * self.n)

    @property
    def diameter(self) -> int:
        if self.metric == HAMMING:
            return self.n
        if self.metric == RANK:
            return min(self.n, self.m)
        return self.t * min(self.m, self.eta)

    def requires_prime_q(self) -> None:
        if not is_prime(self.q):
            raise ValueError(
                f"codeword-level operations need a prime q (towers over F_q); got q={self.q}"
            )


# ---------------------------------------------------------------------------
# weights and distances
# ---------------------------------------------------------------------------


def _digit_cols(x: Codeword, q: int, m: int) -> list[tuple[int, ...]]:
    cols = []
    for c in x:
        col = []
        for _ in range(m):
            c, r = divmod(c, q)
            col.append(r)
        cols.append(tuple(col))
    return cols


def _fp_rank(cols: list[tuple[int, ...]], p: int) -> int:
    """Rank over F_p of the matrix with the given columns: an XOR basis of
    bit masks for p = 2, the row count of the RREF otherwise."""
    if p == 2:
        basis: list[int] = []
        for col in cols:
            v = 0
            for i, d in enumerate(col):
                v |= d << i
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        return len(basis)
    return len(rref(cols, _PrimeField(p))[0])


def weight(space: AmbientSpace, x: Codeword) -> int:
    """Metric weight of x: nonzero count (Hamming), F_q-span dimension of the
    coordinates (rank), or the sum of per-block rank weights (sum-rank)."""
    if len(x) != space.n:
        raise ValueError(f"codeword length {len(x)} != n={space.n}")
    if space.metric == HAMMING:
        return sum(1 for c in x if c)
    space.requires_prime_q()
    cols = _digit_cols(x, space.q, space.m)
    if space.metric == RANK:
        return _fp_rank(cols, space.q)
    eta = space.eta
    return sum(
        _fp_rank(cols[b * eta : (b + 1) * eta], space.q) for b in range(space.t)
    )


def subtract(space: AmbientSpace, x: Codeword, y: Codeword) -> Codeword:
    """Coordinatewise difference in F_{q^m}^n (prime q; digitwise base q)."""
    q, m = space.q, space.m
    if q == 2:
        return tuple(a ^ b for a, b in zip(x, y))
    out = []
    for a, b in zip(x, y):
        acc, mult = 0, 1
        for _ in range(m):
            a, da = divmod(a, q)
            b, db = divmod(b, q)
            acc += ((da - db) % q) * mult
            mult *= q
        out.append(acc)
    return tuple(out)


def distance(space: AmbientSpace, x: Codeword, y: Codeword) -> int:
    if space.metric != HAMMING:
        space.requires_prime_q()
    if space.metric == HAMMING:
        return sum(1 for a, b in zip(x, y) if a != b)
    return weight(space, subtract(space, x, y))


def min_distance(
    code, space: AmbientSpace, *, tower: FieldTower | None = None
) -> int:
    """Minimum distance of a code.

    Nonlinear codes (any iterable of codewords) use all pairs.  A
    :class:`SubspaceBasis` uses the minimum weight over one representative
    per projective class of the row space: the weight is invariant under
    nonzero scalars from the middle field in all three metrics, because
    scalar multiplication is an F_q-linear bijection on each coordinate.
    """
    if isinstance(code, SubspaceBasis):
        if tower is None:
            raise ValueError("a tower is required to evaluate subspace codewords")
        if code.dim < 1:
            raise ValueError("minimum distance needs a nonzero code")
        return min(
            weight(space, tower.unflatten(vec, space.n))
            for vec in projective_span(code, tower)
        )
    words = list(code)
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    best = None
    for x, y in itertools.combinations(words, 2):
        d = distance(space, x, y)
        if best is None or d < best:
            best = d
            if best == 0:
                break
    return best


def projective_span(basis: SubspaceBasis, tower: FieldTower):
    """One coefficient combination per projective class (first nonzero
    coefficient normalized to one), yielding flattened vectors.  The q - 1
    nonzero multiples of each row past the first are formed once, so a
    combination only adds."""
    k = basis.dim
    q = tower.subfield_order
    multiples = [
        [[tower.k_mul(c, x) if x else 0 for x in row] for c in range(1, q)] for row in basis.rows[1:]
    ]
    for lead in range(k):
        for combo in itertools.product(range(q), repeat=k - lead - 1):
            vec = basis.rows[lead]
            for coeff, scaled in zip(combo, multiples[lead:]):
                if coeff:
                    vec = list(map(tower.k_add, vec, scaled[coeff - 1]))
            yield tuple(vec)


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------


def _digit_dtype(p: int) -> np.dtype:
    return np.min_scalar_type(p * p)  # holds a digit plus a product of two digits


def _fp_ranks(cols: list[np.ndarray], p: int) -> np.ndarray:
    """Rank over F_p of N matrices at once, given by their columns: packed
    bit masks of shape (N,) for p = 2, digit arrays of shape (N, m) otherwise.
    For p = 2 this is the XOR-basis elimination of :func:`_fp_rank` run
    elementwise; for odd p each column is reduced against an echelon basis."""
    if p == 2:
        basis: list[np.ndarray] = []
        for col in cols:
            for b in basis:
                col = np.minimum(col, col ^ b)
            basis.append(col)
        return sum((b != 0).astype(np.uint8) for b in basis)
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=cols[0].dtype)
    n_mats, m = cols[0].shape
    # basis[:, c] is zero or the reduced column whose first nonzero digit, a 1, is digit c
    basis = np.zeros((n_mats, m, m), dtype=cols[0].dtype)
    for col in cols:
        v = col.copy()
        for c in range(m):
            v = (v + (p - v[:, c : c + 1]) * basis[:, c]) % p
            lead = v[:, c]
            new = lead != 0  # digits before c are zero, and no basis column leads at c
            basis[new, c] = v[new] * inv[lead[new], None] % p
            v[new] = 0
    return basis.any(axis=2).sum(axis=1)


def _weights(space: AmbientSpace, cols: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Weights of N words of the space, given by their n coordinate columns:
    packed residues of shape (N,) for p = 2, base-p digit arrays of shape
    (N, m) otherwise.  The sum runs in the smallest unsigned dtype that holds
    the diameter, so no weight wraps."""
    p, dtype = space.q, np.min_scalar_type(space.diameter)
    if space.metric == HAMMING:
        blocks = ((col != 0) if p == 2 else col.any(axis=1) for col in cols)
    else:
        eta = space.eta if space.metric == SUMRANK else space.n
        blocks = (_fp_ranks(cols[b : b + eta], p) for b in range(0, space.n, eta))
    return sum(w.astype(dtype) for w in blocks)


def _word_columns(space: AmbientSpace, indices: np.ndarray) -> np.ndarray:
    """The n coordinate columns :func:`_weights` takes, for an array of word
    indices of any shape: index v is the word whose j-th coordinate is the
    j-th base-q^m digit of v, least significant first.

    The indices are unsigned or int64, or Python ints in an object array,
    which any number of words fits.  For p = q = 2 the columns are residues
    cut out by shifts and masks, of shape (n, *indices.shape); otherwise
    they are base-p digits, p = q, of shape (n, *indices.shape, m).  Every
    metric but Hamming has a prime q.
    """
    p, m, n = space.q, space.m, space.n
    if p == 2:
        mask = (1 << m) - 1
        dtype = np.min_scalar_type(mask)
        return np.stack([(indices >> (j * m) & mask).astype(dtype) for j in range(n)])
    digits = np.empty((n * m, *indices.shape), dtype=_digit_dtype(p))
    rest = indices
    for i in range(n * m):
        digits[i] = rest % p
        rest = rest // p
    return np.moveaxis(digits.reshape(n, m, *indices.shape), 1, -1)


def _hold_table_size(space: AmbientSpace, limit: int) -> None:
    """Refuse a weight table of more than ``limit`` entries, one per word."""
    if space.size > limit:
        raise GuardExceeded("weight table entries", space.size, limit)


def _flat_weight_table(space: AmbientSpace) -> np.ndarray:
    """Weight of every word of the space, as an array indexed by the word
    index of :func:`_word_columns`, the one index a word has.

    The table has one entry per word of the space, and every caller holds
    its size first: linear jobs to the enumeration guard with
    :func:`_hold_table_size`, the volume oracle and the reduction check to
    ``ORACLE_SPACE``, and the subset count through its guard on
    C(N-1, S-1), which already bounds N.  No such space has a diameter past
    255, so the table is uint8.
    """
    indices = np.arange(space.size, dtype=np.min_scalar_type(space.size - 1))
    return _weights(space, _word_columns(space, indices))


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------


def ball_volume(space: AmbientSpace, r: int) -> int:
    """Exact number of vectors at distance <= r from the origin.  A ball of
    radius at least the metric diameter is the whole space, q^(m n), with no
    shell summed (callers pass d-1 where d may be diameter+1).

    Hamming volumes sum C(n, i) (q^m - 1)^i.  Rank volumes sum the rank
    shells of F_{q^m}^n (see :func:`_rank_shells`).  A sum-rank weight is the
    sum of the t block rank weights, so the sum-rank weight distribution is
    the t-fold convolution of one block's shells at length eta; the volume
    convolves them t times, drops every degree past r, and sums what is
    left.  That costs O(t * r * min(m, eta)) products, where walking every
    split of the weight over the blocks grows exponentially in t.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if r >= space.diameter:
        return space.size
    q, m, n = space.q, space.m, space.n
    if space.metric == HAMMING:
        return sum(binom(n, i) * (q**m - 1) ** i for i in range(r + 1))
    if space.metric == RANK:
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


def _rank_shells(q: int, m: int, n: int, r: int) -> list[int]:
    """[N_0, ..., N_top] with top = min(r, m, n), where
    N_i = qbinom(n, i, q) * prod_{j<i} (q^m - q^j) counts the vectors of
    F_{q^m}^n of rank weight i.  Each shell follows from the one before by
    one exact step, N_i = N_{i-1} (q^(n-i+1) - 1)(q^m - q^(i-1)) / (q^i - 1)."""
    qm = q**m
    shells = [1]
    for i in range(1, min(r, m, n) + 1):
        shells.append(shells[-1] * (q ** (n - i + 1) - 1) * (qm - q ** (i - 1)) // (q**i - 1))
    return shells


@lru_cache(maxsize=None)
def _weight_distribution(space: AmbientSpace) -> tuple[int, ...]:
    """Number of vectors of each weight 0..diameter: a bincount of the
    space's weight table.  Hamming takes any prime power q, since its
    weight only sees which base-q digit columns are nonzero."""
    if space.size > ORACLE_SPACE:
        raise GuardExceeded("volume oracle space size", space.size, ORACLE_SPACE)
    if space.metric != HAMMING:
        space.requires_prime_q()
    table = _flat_weight_table(space)
    return tuple(int(c) for c in np.bincount(table, minlength=space.diameter + 1))


def ball_volume_oracle(space: AmbientSpace, r: int) -> int:
    """Ball volume recounted from the weight of every vector of the space.

    The weights come from :func:`_flat_weight_table`, built over F_p with no
    closed form involved; the space is held to ``ORACLE_SPACE`` and never to
    the enumeration guard.  The tests check the table against :func:`weight`.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    counts = _weight_distribution(space)
    return sum(counts[: min(r, space.diameter) + 1])


# ---------------------------------------------------------------------------
# growth profiles
# ---------------------------------------------------------------------------

GROWING = ("q", "n", "ell", "s")


@dataclass(frozen=True)
class GrowthProfile:
    """Leading behavior of a quantity as one parameter X tends to infinity:

        value ~ coefficient * X^poly_degree * q^(exp_slope * X + exp_intercept)

    For ``var == "q"`` the base itself grows; the exponent is the constant
    ``exp_intercept`` (slope and polynomial degree stay zero).
    """

    coefficient: Fraction
    var: str
    exp_slope: Fraction
    exp_intercept: Fraction
    poly_degree: int = 0

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ValueError("leading coefficient must be positive")
        if self.var not in GROWING:
            raise ValueError(f"unknown growing parameter {self.var!r}")

    def __mul__(self, other: GrowthProfile) -> GrowthProfile:
        """Leading behavior of the product of two quantities along one limit."""
        self._same_limit(other)
        return GrowthProfile(
            self.coefficient * other.coefficient,
            self.var,
            self.exp_slope + other.exp_slope,
            self.exp_intercept + other.exp_intercept,
            self.poly_degree + other.poly_degree,
        )

    def __truediv__(self, other: GrowthProfile) -> GrowthProfile:
        """Leading behavior of the quotient of two quantities along one limit."""
        self._same_limit(other)
        return GrowthProfile(
            self.coefficient / other.coefficient,
            self.var,
            self.exp_slope - other.exp_slope,
            self.exp_intercept - other.exp_intercept,
            self.poly_degree - other.poly_degree,
        )

    def _same_limit(self, other: GrowthProfile) -> None:
        if other.var != self.var:
            raise ValueError(f"profiles along {self.var} and {other.var} do not combine")


def volume_growth(space: AmbientSpace, r: int, growing: str) -> GrowthProfile:
    """Leading coefficient and exponent of the radius-r ball volume as the
    named parameter grows, with everything else held fixed.

    Supported pairs: Hamming and rank for every parameter, sum-rank for
    growing q only.  Unsupported pairs raise
    :class:`~codedensity.guards.UnsupportedAsymptotics`.
    """
    if growing not in GROWING:
        raise ValueError(f"unknown growing parameter {growing!r}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q, m, n, ell, s = space.q, space.m, space.n, space.ell, space.s
    if r == 0:
        return GrowthProfile(Fraction(1), growing, Fraction(0), Fraction(0))
    if space.metric == HAMMING:
        if growing == "n":
            coeff = Fraction((q**m - 1) ** r, math.factorial(r))
            return GrowthProfile(coeff, "n", Fraction(0), Fraction(0), poly_degree=r)
        if r > n:
            raise ValueError(f"radius {r} exceeds the Hamming diameter {n}")
        if growing == "q":
            return GrowthProfile(Fraction(binom(n, r)), "q", Fraction(0), Fraction(r * m))
        if growing == "ell":
            return GrowthProfile(Fraction(binom(n, r)), "ell", Fraction(r * s), Fraction(0))
        return GrowthProfile(Fraction(binom(n, r)), "s", Fraction(r * ell), Fraction(0))
    if space.metric == RANK:
        if growing == "q":
            if r > min(n, m):
                raise ValueError(f"radius {r} exceeds the rank diameter {min(n, m)}")
            return GrowthProfile(Fraction(1), "q", Fraction(0), Fraction(r * (m + n - r)))
        if growing == "n":
            if r > m:
                raise ValueError(f"radius {r} exceeds the eventual rank diameter {m}")
            return GrowthProfile(Fraction(qbinom(m, r, q)), "n", Fraction(r), Fraction(0))
        if r > n:
            raise ValueError(f"radius {r} exceeds the eventual rank diameter {n}")
        if growing == "ell":
            return GrowthProfile(Fraction(qbinom(n, r, q)), "ell", Fraction(r * s), Fraction(0))
        return GrowthProfile(Fraction(qbinom(n, r, q)), "s", Fraction(r * ell), Fraction(0))
    if growing != "q":
        raise UnsupportedAsymptotics(
            "sum-rank ball growth is only available for growing q; "
            "supported pairs: hamming/rank x {q, n, ell, s}, sumrank x {q}"
        )
    eta, t = space.eta, space.t
    if r > t * min(m, eta):
        raise ValueError(f"radius {r} exceeds the sum-rank diameter {t * min(m, eta)}")
    z = r % t
    expo = Fraction(z * z, t) - z + r * (m + eta) - Fraction(r * r, t)
    return GrowthProfile(Fraction(binom(t, z)), "q", Fraction(0), expo)
