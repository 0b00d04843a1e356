"""Exact finite-parameter bounds: Singleton-type maxima, quasi-extremal
dimensions, Gilbert-Varshamov cardinality, and the two-sided density brackets
for nonlinear and sublinear code families.

All results are exact rationals.  Density brackets are clamped to [0, 1] with
the raw pre-clamp values preserved, so the underlying counting inequalities
stay testable verbatim.  The nonlinear bracket treats the ambient F_{q^m}^n
as an unstructured metric space over an alphabet of size q^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import binom, qbinom
from .metrics import AmbientSpace, HAMMING, RANK, ball_volume

__all__ = [
    "CodeFamilySpec",
    "DensityBracket",
    "NonlinearBoundTerms",
    "SublinearBoundTerms",
    "singleton_max",
    "singleton_exponent",
    "max_linear_dimension",
    "gv_cardinality",
    "nonlinear_bracket",
    "sublinear_bracket",
    "bad_code_count_brackets",
]


@dataclass(frozen=True)
class CodeFamilySpec:
    """A code family inside a space: linearity degree (0 = nonlinear), a size
    (cardinality S or dimension k over the middle field), and a distance
    target d."""

    linearity: int
    d: int
    size: int | None = None
    dim: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("distance target d must be >= 1")
        if self.linearity == 0:
            if self.size is None or self.size < 2:
                raise ValueError("nonlinear families need a cardinality S >= 2")
        else:
            if self.linearity < 1 or self.dim is None or self.dim < 1:
                raise ValueError("linear families need linearity >= 1 and a dimension k >= 1")

    def validate_for(self, space: AmbientSpace) -> None:
        if self.d > space.diameter + 1:
            raise ValueError(
                f"d={self.d} exceeds diameter+1={space.diameter + 1} of the space"
            )
        if self.linearity == 0:
            if self.size > space.size:
                raise ValueError("cardinality exceeds the ambient space")
        else:
            if space.m % self.linearity:
                raise ValueError(f"linearity {self.linearity} must divide m={space.m}")
            ns = space.n * (space.m // self.linearity)
            if self.dim > ns:
                raise ValueError(f"dimension k={self.dim} exceeds ns={ns}")


@dataclass(frozen=True)
class NonlinearBoundTerms:
    beta0: Fraction
    beta1: Fraction
    theta: Fraction


@dataclass(frozen=True)
class SublinearBoundTerms:
    theta_bar: Fraction


def _at_most(x: Fraction, y: Fraction) -> bool:
    """x <= y, exactly, by cross-multiplying the shorter numerators: those of
    x and y, or those of 1 - y and 1 - x, which are shorter near 1.  Either
    way each product pairs a short numerator with a long denominator, where
    ``Fraction`` comparison of two values near 1 multiplies two long ints."""
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    if max(b - a, d - c).bit_length() < max(a, c).bit_length():
        return (d - c) * b <= (b - a) * d
    return a * d <= c * b


@dataclass(frozen=True)
class DensityBracket:
    """Exact rational [lower, upper] on a density, clamped to [0, 1], with the
    raw bound values kept for verbatim formula checks."""

    lower: Fraction
    upper: Fraction
    raw_lower: Fraction
    raw_upper: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.lower and self.upper <= 1 and _at_most(self.lower, self.upper)):
            raise ValueError("bracket must satisfy 0 <= lower <= upper <= 1")

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper


def _reduced(num: int, den: int) -> Fraction:
    """The Fraction num/den, built with no gcd.

    Contract: the caller has proved gcd(num, den) = 1 and den > 0; nothing
    here checks either.  The two slots are set directly because the private
    ``_normalize`` argument of ``Fraction`` is gone from Python 3.12 on.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _clamped(raw_lower: Fraction, raw_upper: Fraction) -> DensityBracket:
    return DensityBracket(
        lower=max(raw_lower, Fraction(0)),
        upper=min(raw_upper, Fraction(1)),
        raw_lower=raw_lower,
        raw_upper=raw_upper,
    )


def singleton_exponent(space: AmbientSpace, d: int) -> int:
    """Exponent E with q^E the metric's Singleton-type cardinality maximum."""
    if not 1 <= d <= space.diameter:
        raise ValueError(f"d={d} out of range [1, {space.diameter}]")
    m, n = space.m, space.n
    if space.metric == HAMMING:
        return m * (n - d + 1)
    if space.metric == RANK:
        return max(n, m) * (min(n, m) - d + 1)
    eta, t = space.eta, space.t
    return max(m, eta) * (t * min(m, eta) - d + 1)


def singleton_max(space: AmbientSpace, d: int) -> int:
    """Largest cardinality a distance-d code in the space can have."""
    return space.q ** singleton_exponent(space, d)


def max_linear_dimension(space: AmbientSpace, d: int, ell: int) -> tuple[int, bool]:
    """Largest middle-field dimension k with ell*k within the Singleton
    exponent, and whether ell*k attains it exactly (a true extremal dimension
    rather than a quasi one)."""
    if space.m % ell:
        raise ValueError(f"linearity {ell} must divide m={space.m}")
    exponent = singleton_exponent(space, d)
    k_star = exponent // ell
    return k_star, ell * k_star == exponent


def gv_cardinality(space: AmbientSpace, d: int) -> int:
    """Existence guarantee: some distance-d code has at least this many words."""
    if not 1 <= d <= space.diameter + 1:
        raise ValueError(f"d={d} out of range [1, {space.diameter + 1}]")
    vol = ball_volume(space, d - 1)
    return -(-space.size // vol)


def nonlinear_bracket(
    space: AmbientSpace, size: int, d: int
) -> tuple[DensityBracket, NonlinearBoundTerms]:
    """Two-sided bound on the fraction of size-S codes with distance >= d.

    With N the ambient size and v the ball volume of radius d-1:

        1 - (v-1) S(S-1) / (2 (N-1))            <= density
        1 - (v-1) S(S-1) / (2 Theta (N-1))      >= density

    where Theta = 1 + beta1 (S-2)/(N-2) + beta0 (S-2)(S-3)/((N-2)(N-3)),
    beta0 = N(v-1)/2 - 2v + 3 and beta1 = 2v - 4.  d = 1 makes v = 1 and both
    bounds collapse to 1 exactly.

    Every fraction is built from integers and reduced against the known
    factors of its denominator, so each gcd has one operand no larger than
    about v S^2, never two of the size of N^2 (a gcd's cost follows its
    smaller operand).  With A = N-2, B = N-3 and P = 2 beta0:

    - Theta = T / (2AB), T = 2AB + 2 beta1 (S-2) B + P (S-2)(S-3).  T is
      -beta1 (S-2)(S-1) mod A and (3-v)(S-2)(S-3) mod B, so gcd(T, A) and
      gcd(T, B) are taken with those remainders.  A and B are coprime, and
      one parity step settles the factor 2.
    - spoiled = (v-1) S(S-1) / (2(N-1)) takes one gcd with its numerator,
      and raw_lower = 1 - spoiled needs none.
    - raw_upper = 1 - spoiled / Theta: the numerators' gcd is taken with
      spoiled's numerator, and the denominators' gcd divides
      gcd(2(N-1), 2AB), which divides 4.
    - beta0 = P/2 is reduced by parity; beta1 is an integer.
    """
    if size < 2:
        raise ValueError("nonlinear bracket needs S >= 2")
    if not 1 <= d <= space.diameter + 1:
        raise ValueError(f"d={d} out of range [1, {space.diameter + 1}]")
    ambient = space.size
    if ambient < 4:
        raise ValueError(
            f"ambient size {ambient} < 4: the Theta correction divides by N-2 and N-3"
        )
    if size > ambient:
        raise ValueError(f"S={size} exceeds the ambient size {ambient}")
    v = ball_volume(space, d - 1)
    if v == 1:
        terms = NonlinearBoundTerms(Fraction(1), Fraction(-2), Fraction(1))
        return _clamped(Fraction(1), Fraction(1)), terms
    a, b = ambient - 2, ambient - 3
    p = ambient * (v - 1) - 4 * v + 6
    beta1 = 2 * v - 4
    beta0 = _reduced(p, 2) if p % 2 else Fraction(p // 2)
    # Theta = t_num / t_den
    g_a = math.gcd(a, beta1 * (size - 2) * (size - 1))
    g_b = math.gcd(b, (3 - v) * (size - 2) * (size - 3))
    t_num = (2 * a * b + 2 * beta1 * (size - 2) * b + p * (size - 2) * (size - 3)) // (g_a * g_b)
    t_den = 2 * (a // g_a) * (b // g_b)
    if t_num % 2 == 0:
        t_num, t_den = t_num // 2, t_den // 2
    # spoiled = s_num / s_den
    s_num = (v - 1) * size * (size - 1)
    s_den = 2 * (ambient - 1)
    g = math.gcd(s_den, s_num)
    s_num, s_den = s_num // g, s_den // g
    # spoiled / Theta = u_num / u_den
    g_num = math.gcd(s_num, t_num)
    g_den = math.gcd(s_den & 3, t_den & 3, 4)
    u_num = (s_num // g_num) * (t_den // g_den)
    u_den = (s_den // g_den) * (t_num // g_num)
    raw_lower = _reduced(s_den - s_num, s_den)
    raw_upper = _reduced(u_den - u_num, u_den)
    terms = NonlinearBoundTerms(beta0, Fraction(beta1), _reduced(t_num, t_den))
    return _clamped(raw_lower, raw_upper), terms


def _qbinom_step_ratio(a: int, b: int, base: int) -> Fraction:
    """qbinom(a-1, b-1, base) / qbinom(a, b, base) for 0 <= b <= a, which is
    (base^b - 1) / (base^a - 1) and 0 at b = 0, so neither Gaussian binomial
    is built."""
    if b == 0:
        return Fraction(0)
    return Fraction(base**b - 1, base**a - 1)


def sublinear_bracket(
    space: AmbientSpace, k: int, ell: int, d: int
) -> tuple[DensityBracket, SublinearBoundTerms]:
    """Two-sided bound on the fraction of middle-field-linear dimension-k
    codes with distance >= d; all Gaussian binomials at base B = q^ell.

    With v the ball volume of radius d-1 and ns = n*m/ell:

        1 - (v-1)/(B-1) * [ns-1, k-1]/[ns, k]              <= density
        1 - (v-1)/(B-1) * [ns-1, k-1]/([ns, k] theta_bar)   >= density

    where theta_bar = 1 + ((v-1)/(B-1) - 1) [ns-2, k-2]/[ns-1, k-1].  Both
    ratios of Gaussian binomials are quotients of two powers of B minus one
    (:func:`_qbinom_step_ratio`).
    """
    if space.m % ell:
        raise ValueError(f"linearity {ell} must divide m={space.m}")
    s = space.m // ell
    ns = space.n * s
    if not 1 <= k <= ns:
        raise ValueError(f"k={k} out of range [1, {ns}]")
    if not 1 <= d <= space.diameter + 1:
        raise ValueError(f"d={d} out of range [1, {space.diameter + 1}]")
    base = space.q**ell
    v = ball_volume(space, d - 1)
    if v == 1:
        return _clamped(Fraction(1), Fraction(1)), SublinearBoundTerms(Fraction(1))
    vv = Fraction(v - 1, base - 1)
    spoiled = vv * _qbinom_step_ratio(ns, k, base)
    theta_bar = 1 + (vv - 1) * _qbinom_step_ratio(ns - 1, k - 1, base)
    raw_lower = 1 - spoiled
    raw_upper = 1 - spoiled / theta_bar
    return _clamped(raw_lower, raw_upper), SublinearBoundTerms(theta_bar)


def bad_code_count_brackets(
    space: AmbientSpace, spec: CodeFamilySpec
) -> tuple[Fraction, Fraction]:
    """Exact lower/upper bounds on the number of codes in the family whose
    minimum distance is at most d-1."""
    spec.validate_for(space)
    d = spec.d
    v = ball_volume(space, d - 1)
    if spec.linearity == 0:
        size = spec.size
        ambient = space.size
        if ambient < 4:
            raise ValueError("ambient size below 4")
        if v == 1:
            return Fraction(0), Fraction(0)
        _, terms = nonlinear_bracket(space, size, d)
        upper = Fraction(ambient * (v - 1) * binom(ambient - 2, size - 2), 2)
        lower = upper / terms.theta
        return lower, upper
    ell = spec.linearity
    s = space.m // ell
    ns = space.n * s
    base = space.q**ell
    k = spec.dim
    if v == 1:
        return Fraction(0), Fraction(0)
    vv = Fraction(v - 1, base - 1)
    upper = vv * qbinom(ns - 1, k - 1, base)
    lower = upper / (1 + (vv - 1) * _qbinom_step_ratio(ns - 1, k - 1, base))
    return lower, upper
