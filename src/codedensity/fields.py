"""Finite-field towers F_p <= F_{p^ell} <= F_{p^m} (m = ell*s) and linear
algebra over the bottom and middle levels, with one row reduction for both.

Elements of F_{p^m} are ints in [0, p^m) whose base-p digits (little-endian)
are the coefficients of the polynomial residue modulo a fixed irreducible of
degree m.  The modulus is the monic irreducible whose integer encoding is
smallest, so a tower is reproducible across runs and platforms.

The middle field F_{p^ell} is realized inside F_{p^m} as the fixed set of the
ell-fold Frobenius x -> x^(p^ell), found as the kernel of the F_p-linear map
Frobenius^ell - id.  Its elements are addressed by a dense *index* in
[0, p^ell) encoding coordinates over a fixed F_p-basis of that kernel; index
arithmetic is backed by multiplication tables for small fields.  Vectors over
F_{p^ell} (used for subspace enumeration and sampling) are tuples of such
indices, and ``unflatten`` maps F_{p^ell}^(n*s) onto F_{p^m}^n through a
fixed relative basis.  ``build_tower`` keeps one tower per (p, ell, s).

Subspaces are RREF bases.  Enumeration walks the pivot profiles, and within
one profile takes the Cartesian product of each row's own choices, since an
RREF row's free cells lie in that row alone.

Randomness is never global: samplers take a numpy ``Generator`` (the callers
key a counter-based Philox stream per trial), so independent streams can run
in parallel with reproducible output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .combinat import is_prime, qbinom
from .guards import TOWER_DEGREE, Guards, GuardExceeded

Codeword = tuple[int, ...]

_K_TABLE_LIMIT = 512  # build dense index tables only for fields up to this order


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient tuples, little-endian)
# ---------------------------------------------------------------------------


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _poly_trim(tuple(a))


def _poly_powmod(
    base: tuple[int, ...], exp: int, mod: tuple[int, ...], p: int
) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_mod(base, mod, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        exp >>= 1
    return result


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test: x^(p^m) == x mod f, and gcd(x^(p^(m/r)) - x, f) = 1 for
    every prime r dividing m."""
    m = len(f) - 1
    if m == 1:
        return True
    x = (0, 1)
    xpm = _poly_powmod(x, p**m, f, p)
    if _poly_trim(tuple((xi - yi) % p for xi, yi in itertools.zip_longest(xpm, x, fillvalue=0))):
        return False
    for r in _prime_factors(m):
        xpk = _poly_powmod(x, p ** (m // r), f, p)
        diff = _poly_trim(
            tuple((xi - yi) % p for xi, yi in itertools.zip_longest(xpk, x, fillvalue=0))
        )
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over F_p with the smallest int encoding."""
    for low in range(p**m):
        coeffs = _digits(low, p, m) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits(x: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        x, r = divmod(x, p)
        out.append(r)
    return tuple(out)


def _undigits(digits: tuple[int, ...], p: int) -> int:
    x = 0
    for d in reversed(digits):
        x = x * p + d
    return x


# ---------------------------------------------------------------------------
# F_p linear algebra on digit vectors (tower construction and F_p ranks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PrimeField:
    """F_p as a field for :func:`rref`: the index of an element is its
    residue.  Towers are built on top of F_p elimination, so they cannot
    serve here."""

    p: int
    one_index = 1

    def k_inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def k_mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def k_sub(self, a: int, b: int) -> int:
        return (a - b) % self.p


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------


class FieldTower:
    """F_p <= F_{p^ell} <= F_{p^m}, with explicit bases for both steps.

    Built via :func:`build_tower`; immutable and shareable after construction.
    """

    def __init__(self, p: int, ell: int, s: int):
        if not is_prime(p):
            raise ValueError(f"tower base must be prime, got {p}")
        if ell < 1 or s < 1:
            raise ValueError("ell and s must be positive")
        m = ell * s
        if m > TOWER_DEGREE:
            raise GuardExceeded("tower extension degree", m, TOWER_DEGREE)
        self.p = p
        self.ell = ell
        self.s = s
        self.m = m
        self.order = p**m
        self.subfield_order = p**ell
        self.modulus = _smallest_irreducible(p, m)

        self._mul_cache: dict[tuple[int, int], int] = {}
        self.subfield_basis = self._frobenius_kernel_basis()
        assert len(self.subfield_basis) == ell, "subfield has wrong dimension"
        self.relative_basis = self._relative_basis()
        assert len(self.relative_basis) == s, "relative basis has wrong size"

        self._k_index_to_res: list[int] | None = None
        self._k_res_to_index: dict[int, int] | None = None
        self._k_mul_table: list[list[int]] | None = None
        self._k_inv_table: list[int] | None = None
        self.one_index = self._build_k_maps_and_one()

    # -- element arithmetic on residues (ints in [0, p^m)) ------------------

    def digits(self, x: int) -> tuple[int, ...]:
        return _digits(x, self.p, self.m)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        return _undigits(
            tuple((da + db) % p for da, db in zip(self.digits(a), self.digits(b))), p
        )

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        return _undigits(tuple((-d) % p for d in self.digits(a)), p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        key = (a, b) if a <= b else (b, a)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        prod = _poly_mod(_poly_mul(self.digits(a), self.digits(b), self.p), self.modulus, self.p)
        res = _undigits(prod + (0,) * (self.m - len(prod)), self.p)
        if len(self._mul_cache) < 1 << 20:
            self._mul_cache[key] = res
        return res

    def pow_(self, a: int, e: int) -> int:
        result, base = 1, a
        if e < 0:
            base, e = self.inv(a), -e
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow_(a, self.order - 2)

    def frobenius(self, a: int) -> int:
        return self.pow_(a, self.p)

    def is_subfield_element(self, a: int) -> bool:
        x = a
        for _ in range(self.ell):
            x = self.frobenius(x)
        return x == a

    # -- construction helpers ------------------------------------------------

    def _frobenius_kernel_basis(self) -> list[int]:
        """F_p-basis of ker(Frobenius^ell - id), i.e. of the middle field."""
        p, m = self.p, self.m
        rows = []
        for i in range(m):
            e = _undigits(tuple(1 if j == i else 0 for j in range(m)), p)
            x = e
            for _ in range(self.ell):
                x = self.frobenius(x)
            diff = self.sub(x, e)
            rows.append(list(self.digits(diff)))
        # kernel of the map whose i-th *row* is the image of basis vector i
        cols = [[rows[i][j] for i in range(m)] for j in range(m)]
        reduced, pivots = rref(cols, _PrimeField(p))
        free = [j for j in range(m) if j not in pivots]
        basis = []
        for f in free:
            vec = [0] * m
            vec[f] = 1
            for r_idx, c in enumerate(pivots):
                vec[c] = (-reduced[r_idx][f]) % p
            basis.append(_undigits(tuple(vec), p))
        return sorted(basis)

    def _relative_basis(self) -> list[int]:
        """Greedy F_{p^ell}-basis of F_{p^m} drawn from the power basis
        1, x, x^2, ...; each accepted candidate enlarges the F_p-span by all
        of its subfield multiples."""
        p, m = self.p, self.m
        fp = _PrimeField(p)
        span_rows: list[list[int]] = []
        basis: list[int] = []
        for i in range(m):
            cand = _undigits(tuple(1 if j == i else 0 for j in range(m)), p)
            probe, _ = rref(span_rows + [list(self.digits(cand))], fp)
            if len(probe) == len(span_rows):
                continue
            basis.append(cand)
            for kappa in self.subfield_basis:
                span_rows.append(list(self.digits(self.mul(kappa, cand))))
            span_rows, _ = rref(span_rows, fp)
            if len(basis) == self.s:
                break
        return basis

    def _build_k_maps_and_one(self) -> int:
        p, ell = self.p, self.ell
        index_to_res = []
        for idx in range(self.subfield_order):
            coords = _digits(idx, p, ell)
            # c * kappa with c in F_p is repeated addition (c < p stays tiny)
            res = 0
            for c, kappa in zip(coords, self.subfield_basis):
                for _ in range(c):
                    res = self.add(res, kappa)
            index_to_res.append(res)
        res_to_index = {res: i for i, res in enumerate(index_to_res)}
        assert len(res_to_index) == self.subfield_order
        self._k_index_to_res = index_to_res
        self._k_res_to_index = res_to_index
        if self.subfield_order <= _K_TABLE_LIMIT:
            tbl = []
            for a_res in index_to_res:
                tbl.append([res_to_index[self.mul(a_res, b_res)] for b_res in index_to_res])
            self._k_mul_table = tbl
            inv_tbl = [0] * self.subfield_order
            for i, a_res in enumerate(index_to_res):
                if a_res:
                    inv_tbl[i] = res_to_index[self.inv(a_res)]
            self._k_inv_table = inv_tbl
        return res_to_index[1]

    # -- middle-field index arithmetic --------------------------------------

    def k_to_residue(self, idx: int) -> int:
        assert self._k_index_to_res is not None
        return self._k_index_to_res[idx]

    def k_from_residue(self, res: int) -> int:
        assert self._k_res_to_index is not None
        return self._k_res_to_index[res]

    def k_add(self, i: int, j: int) -> int:
        if self.p == 2:
            return i ^ j
        p = self.p
        return _undigits(
            tuple((a + b) % p for a, b in zip(_digits(i, p, self.ell), _digits(j, p, self.ell))),
            p,
        )

    def k_neg(self, i: int) -> int:
        if self.p == 2:
            return i
        p = self.p
        return _undigits(tuple((-a) % p for a in _digits(i, p, self.ell)), p)

    def k_sub(self, i: int, j: int) -> int:
        return self.k_add(i, self.k_neg(j))

    def k_mul(self, i: int, j: int) -> int:
        if self._k_mul_table is not None:
            return self._k_mul_table[i][j]
        return self.k_from_residue(self.mul(self.k_to_residue(i), self.k_to_residue(j)))

    def k_inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._k_inv_table is not None:
            return self._k_inv_table[i]
        return self.k_from_residue(self.inv(self.k_to_residue(i)))

    # -- coordinate maps ------------------------------------------------------

    def unflatten_coord(self, coords: tuple[int, ...]) -> int:
        x = 0
        for idx, b in zip(coords, self.relative_basis):
            x = self.add(x, self.mul(self.k_to_residue(idx), b))
        return x

    def unflatten(self, vec: tuple[int, ...], n: int) -> Codeword:
        s = self.s
        if len(vec) != n * s:
            raise ValueError(f"expected a vector of length {n * s}, got {len(vec)}")
        return tuple(self.unflatten_coord(tuple(vec[j * s : (j + 1) * s])) for j in range(n))


@lru_cache(maxsize=64)
def build_tower(p: int, ell: int, s: int) -> FieldTower:
    """The tower F_p <= F_{p^ell} <= F_{p^(ell*s)}, of degree at most
    ``TOWER_DEGREE``; one shared instance per (p, ell, s)."""
    return FieldTower(p, ell, s)


# ---------------------------------------------------------------------------
# subspaces of F_{p^ell}^(n*s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical RREF basis of a k-dimensional subspace of F_{p^ell}^(n*s);
    rows hold middle-field indices."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def rref(rows: list[list[int]], field) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, without zero rows, and its pivot columns.

    ``field`` is a tower (entries are middle-field indices) or a
    :class:`_PrimeField` (entries are residues mod p): anything with
    ``one_index``, ``k_inv``, ``k_mul`` and ``k_sub`` on indices whose zero
    is 0.
    """
    k_mul, k_sub = field.k_mul, field.k_sub
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.k_inv(rows[r][c])
        if rows[r][c] != field.one_index:
            rows[r] = [k_mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [k_sub(vi, k_mul(f, vr)) for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows = [row for row in rows if any(row)]
    return rows, pivots


def subspace_from_rows(rows: list[list[int]], tower: FieldTower) -> SubspaceBasis:
    reduced, pivots = rref(rows, tower)
    return SubspaceBasis(tuple(tuple(r) for r in reduced), tuple(pivots))


def enumerate_subspaces(
    k: int, tower: FieldTower, n: int, guards: Guards = Guards()
) -> Iterator[SubspaceBasis]:
    """All k-dimensional subspaces of F_{p^ell}^(n*s), once each, as RREF
    bases, pivot profile by pivot profile.

    The free cells of an RREF row lie in that row alone (right of its pivot,
    off the other pivot columns), so the bases of one profile are the
    Cartesian product of per-row choice lists, the first row varying
    slowest and each row's last free cell fastest.  Rows 2..k are built once
    per profile and held; row 1, whose free cells are a superset of every
    other row's, is generated lazily, so memory stays near k times the
    square root of the profile's count.  The guard is checked at the first
    ``next()``.
    """
    ns = n * tower.s
    if k < 0 or k > ns:
        raise ValueError(f"dimension k={k} out of range for ambient dimension {ns}")
    total = qbinom(ns, k, tower.subfield_order)
    if total > guards.enumeration:
        raise GuardExceeded("subspace enumeration", total, guards.enumeration)
    if k == 0:
        yield SubspaceBasis((), ())
        return
    for pivots in itertools.combinations(range(ns), k):
        choices = [_row_choices(pc, pivots, ns, tower) for pc in pivots]
        rest = [tuple(row) for row in choices[1:]]
        for first in choices[0]:
            for others in itertools.product(*rest):
                yield SubspaceBasis((first,) + others, pivots)


def _row_choices(
    pc: int, pivots: tuple[int, ...], ns: int, tower: FieldTower
) -> Iterator[tuple[int, ...]]:
    """Every RREF row with its pivot at column ``pc``: zero left of it and on
    the other pivot columns, any value elsewhere, in lexicographic order."""
    head = (0,) * pc + (tower.one_index,)
    q_range = range(tower.subfield_order)
    tail = [(0,) if j in pivots else q_range for j in range(pc + 1, ns)]
    return (head + cells for cells in itertools.product(*tail))


def sample_subspace(gen, k: int, tower: FieldTower, n: int) -> SubspaceBasis:
    """Uniformly random k-dimensional subspace of F_{p^ell}^(n*s).

    Draws uniform k x ns matrices and rejects until the rank is k; every
    subspace has the same number of rank-k matrices with that row space, so
    the RREF of an accepted draw is uniform.
    """
    ns = n * tower.s
    if not 1 <= k <= ns:
        raise ValueError(f"dimension k={k} out of range [1, {ns}]")
    while True:
        reduced, pivots = rref(_draw_matrix(gen, k, tower, n).tolist(), tower)
        if len(reduced) == k:
            return SubspaceBasis(tuple(tuple(r) for r in reduced), tuple(pivots))


def _draw_matrix(gen, k: int, tower: FieldTower, n: int):
    """One uniform k x (n*s) int64 array of middle-field indices: the draw of
    each attempt of :func:`sample_subspace`, and of each attempt of a
    batched linear Monte Carlo trial."""
    return gen.integers(0, tower.subfield_order, size=k * n * tower.s).reshape(k, -1)


def codeword_from_int(value: int, tower: FieldTower, n: int) -> Codeword:
    out = []
    for _ in range(n):
        value, r = divmod(value, tower.order)
        out.append(r)
    return tuple(out)


def sample_code_subset(gen, size: int, tower: FieldTower, n: int) -> tuple[Codeword, ...]:
    """Uniformly random size-element subset of F_{p^m}^n (Floyd's algorithm
    over integer codeword indices), returned in sorted order."""
    space = tower.order**n
    if not 2 <= size <= space:
        raise ValueError(f"subset size {size} out of range [2, {space}]")
    chosen: set[int] = set()
    for j in range(space - size, space):
        pick = _randbelow(gen, j + 1)
        chosen.add(j if pick in chosen else pick)
    return tuple(codeword_from_int(v, tower, n) for v in sorted(chosen))


def _randbelow(gen, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrarily large bounds."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        return int(gen.integers(0, bound))
    bits = bound.bit_length()
    words = (bits + 31) // 32
    while True:
        v = 0
        for _ in range(words):
            v = (v << 32) | int(gen.integers(0, 1 << 32))
        v &= (1 << bits) - 1
        if v < bound:
            return v
