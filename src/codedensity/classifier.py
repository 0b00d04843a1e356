"""Asymptotic dense/sparse classification of code families.

A :class:`Scenario` fixes a metric, a family (extremal, Gilbert-Varshamov
attaining, explicit dimension, or explicit cardinality), a linearity degree,
and the parameter sent to infinity (q, n, ell, or s).  The decision procedure
is a symbolic comparison of exact growth data:

* linear families compare the ball volume v(d-1) against q^(ell*(ns+1-k)),
* nonlinear families compare v(d-1) * S^2 against q^(m*n),

where each side is a :class:`~codedensity.metrics.GrowthProfile` in the
growing parameter X, coefficient * X^degree * q^(slope*X + b) with exact
rational entries.  Linear families take one comparison for all four growing
parameters; when ell itself grows, the template's ell is 1 and ell enters
the exponents as X.  A strictly smaller exponent gives "dense", a strictly
larger one "sparse", and a bounded nonzero limiting ratio c gives
"not-dense" with upper bound 1/(1+c) (linear) or 1/(1+c/2) (nonlinear).

Quasi-extremal dimensions floor-divide the Singleton exponent by ell.  When
the parameter is n this makes the comparison exponent oscillate with bounded
amplitude; the reported not-dense constant then uses the full amplitude ell,
which matches the closed-form worst case for extremal rank families.

Specialized closed-form threshold checks (MDS / MRD / MSRD and the theta
threshold for the sum-rank metric) are provided separately as cross-checks;
the generic comparison is the authoritative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import singleton_exponent
from .combinat import binom, prime_power, qbinom
from .guards import UnsupportedAsymptotics
from .metrics import (
    HAMMING,
    RANK,
    SUMRANK,
    AmbientSpace,
    GrowthProfile,
    ball_volume,
    volume_growth,
)

DENSE = "dense"
SPARSE = "sparse"
NOT_DENSE = "not-dense"
UNKNOWN = "unknown"

EXTREMAL = "extremal"
GV = "gv"
DIMENSION = "dimension"
CARDINALITY = "cardinality"
FAMILIES = (EXTREMAL, GV, DIMENSION, CARDINALITY)


@dataclass(frozen=True)
class Scenario:
    """A code family along a one-parameter limit.

    ``ell`` is the linearity degree: 0 means nonlinear, a positive value is
    the fixed degree, and None means ell itself is the growing parameter.
    The field named by ``growing`` must be left None.  ``t`` must be 1
    outside the sum-rank metric; for sum-rank a fixed ``n`` may be given
    via ``eta`` (n = eta * t).  A cardinality family's ``card_coeff`` must
    be positive.
    """

    metric: str
    growing: str
    family: str
    d: int
    ell: int | None
    q: int | None = None
    n: int | None = None
    s: int | None = None
    t: int = 1
    eta: int | None = None
    dim_slope: Fraction = Fraction(0)
    dim_intercept: Fraction = Fraction(0)
    card_coeff: Fraction = Fraction(1)
    card_slope: Fraction = Fraction(0)
    card_intercept: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.metric not in (HAMMING, RANK, SUMRANK):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric != SUMRANK and self.t != 1:
            raise ValueError("t is only meaningful for the sum-rank metric")
        if self.growing not in ("q", "n", "ell", "s"):
            raise ValueError(f"unknown growing parameter {self.growing!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.card_coeff <= 0:
            raise ValueError("cardinality coefficient must be positive")
        if self.eta is not None:
            if self.growing == "n":
                raise ValueError("eta fixes n = eta*t; leave it unset when n grows")
            if self.n is None:
                object.__setattr__(self, "n", self.eta * self.t)
            elif self.n != self.eta * self.t:
                raise ValueError(f"n={self.n} contradicts eta*t={self.eta * self.t}")
        for name in ("q", "n", "ell", "s"):
            val = getattr(self, name)
            if name == self.growing:
                if val is not None:
                    raise ValueError(f"{name} is the growing parameter; leave it unset")
            elif val is None:
                raise ValueError(f"fixed parameter {name} is required")
        if self.ell is not None and self.ell < 0:
            raise ValueError("ell must be 0 (nonlinear) or positive")
        if self.nonlinear and self.family in (DIMENSION,):
            raise ValueError("dimension families are linear; use cardinality")
        if not self.nonlinear and self.family == CARDINALITY:
            raise ValueError("cardinality families are nonlinear; use dimension")
        if self.q is not None and prime_power(self.q) is None:
            raise ValueError(f"fixed q must be a prime power, got {self.q}")
        if self.metric == SUMRANK:
            if self.t < 1:
                raise ValueError("sum-rank needs t >= 1")
            if self.n is not None and self.n % self.t:
                raise ValueError(f"t={self.t} must divide n={self.n}")

    @property
    def nonlinear(self) -> bool:
        return self.ell == 0


@dataclass(frozen=True)
class Classification:
    verdict: str
    source: str
    upper_bound: Fraction | None = None
    witness: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict == NOT_DENSE:
            if self.upper_bound is None or not self.upper_bound < 1:
                raise ValueError("not-dense requires an upper bound strictly below 1")


def _qpow(q: int, e: Fraction) -> Fraction:
    if e.denominator != 1:
        raise ArithmeticError(f"non-integer power q^{e} in a limiting constant")
    return Fraction(q) ** int(e)


def classify(sc: Scenario) -> Classification:
    """Verdict for the scenario, from the generic exponent comparison."""
    if sc.d == 1:
        return Classification(
            DENSE,
            source="trivial distance target: every code has minimum distance >= 1",
            witness={"density": "identically 1"},
        )
    if sc.metric == SUMRANK and sc.growing != "q":
        return Classification(
            UNKNOWN,
            source="no sum-rank ball growth estimate for this parameter",
            witness={"supported": "sum-rank asymptotics are available for growing q only"},
        )
    if sc.nonlinear:
        return _classify_nonlinear(sc)
    return _classify_linear(sc)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


def _template_space(sc: Scenario, ell_for_m: int) -> AmbientSpace:
    """Ambient-space template for growth profiles; the growing field gets a
    placeholder value that the requested profile does not consult."""
    q = sc.q if sc.q is not None else 2
    n = sc.n if sc.n is not None else max(sc.d, sc.t, 1) * sc.t
    s = sc.s if sc.s is not None else 1
    ell = ell_for_m
    t = sc.t
    if n % t:
        n = t * -(-n // t)
    return AmbientSpace(q, ell, s, n, sc.metric, t=t)


def _exponential(sc: Scenario, slope: Fraction, intercept: Fraction) -> GrowthProfile:
    """q^(slope*X + intercept) in the scenario's growing parameter X."""
    return GrowthProfile(Fraction(1), sc.growing, slope, intercept)


def _verdict_from_ratio(
    ratio: GrowthProfile, sc: Scenario, osc_max: int, upper_of_c, source: str
) -> Classification:
    witness = {
        "ratio_coefficient": str(ratio.coefficient),
        "ratio_poly_degree": str(ratio.poly_degree),
        "ratio_exponent_slope": str(ratio.exp_slope),
        "ratio_exponent_intercept": str(ratio.exp_intercept),
    }
    notes = ()
    if osc_max:
        witness["oscillation_amplitude"] = str(osc_max)
        notes = (
            "quasi-extremal dimension: the comparison exponent oscillates with "
            f"period dividing the linearity degree; constants use amplitude {osc_max}",
        )
    if sc.growing == "q":
        e = ratio.exp_intercept
        if e < 0:
            return Classification(DENSE, source, witness=witness, notes=notes)
        if e > 0:
            return Classification(SPARSE, source, witness=witness, notes=notes)
        c = ratio.coefficient
        witness["limit_constant"] = str(c)
        return Classification(NOT_DENSE, source, upper_of_c(c), witness, notes)
    if ratio.exp_slope < 0:
        return Classification(DENSE, source, witness=witness, notes=notes)
    if ratio.exp_slope > 0:
        return Classification(SPARSE, source, witness=witness, notes=notes)
    if ratio.poly_degree > 0:
        return Classification(SPARSE, source, witness=witness, notes=notes)
    if ratio.poly_degree < 0:
        return Classification(DENSE, source, witness=witness, notes=notes)
    c = ratio.coefficient * _qpow(sc.q, ratio.exp_intercept - osc_max)
    witness["limit_constant"] = str(c)
    return Classification(NOT_DENSE, source, upper_of_c(c), witness, notes)


# ---------------------------------------------------------------------------
# linear families
# ---------------------------------------------------------------------------


def _classify_linear(sc: Scenario) -> Classification:
    # a growing ell enters every exponent as X, so the template's ell is 1
    ell = 1 if sc.growing == "ell" else sc.ell
    source = f"exponent comparison, linear, growing {sc.growing}"
    if sc.family == GV:
        _refuse_gv_past_diameter(sc, ell)
        # cardinality pinned to q^(ell*ns) / v: the ratio is exactly q^(-ell)
        if sc.growing == "ell":
            ratio = _exponential(sc, Fraction(-1), Fraction(0))
        else:
            source = "exponent comparison, linear, Gilbert-Varshamov family"
            ratio = _exponential(sc, Fraction(0), Fraction(-ell))
        return _verdict_from_ratio(ratio, sc, 0, _linear_upper, source)

    comp_slope, comp_intercept, osc_max = _comparison_exponent(sc, ell)
    vol = volume_growth(_template_space(sc, ell), sc.d - 1, sc.growing)
    ratio = vol / _exponential(sc, comp_slope, comp_intercept)
    return _verdict_from_ratio(ratio, sc, osc_max, _linear_upper, source)


def _refuse_gv_past_diameter(sc: Scenario, ell: int) -> None:
    """Once d - 1 reaches the diameter no code of two or more words has
    distance d, and every probe's bracket is [0, 0]: no GV family exists."""
    diameter = _eventual_diameter(sc, ell)
    if diameter is not None and sc.d > diameter:
        raise ValueError("Gilbert-Varshamov family needs d - 1 below the diameter")


def _eventual_diameter(sc: Scenario, ell: int) -> int | None:
    """The metric diameter once the growing parameter is large, or None
    when it grows without bound."""
    if sc.growing == "q":
        return _template_space(sc, ell).diameter
    # only Hamming and rank get here: other sum-rank limits classify as unknown
    if sc.metric == HAMMING:
        return None if sc.growing == "n" else sc.n
    # rank: min(m, n), with m = ell*s fixed when n grows
    return ell * sc.s if sc.growing == "n" else sc.n


def _linear_upper(c: Fraction) -> Fraction:
    return 1 / (1 + c)


def _nonlinear_upper(c: Fraction) -> Fraction:
    return 1 / (1 + c / 2)


def _comparison_exponent(sc: Scenario, ell: int) -> tuple[Fraction, Fraction, int]:
    """(slope, intercept, oscillation) of ell*(ns+1-k) in the growing
    parameter, for extremal and explicit-dimension families."""
    d, growing = sc.d, sc.growing
    if growing == "ell" and d > sc.n:
        raise ValueError(f"d={d} exceeds the eventual diameter n={sc.n}")
    if sc.family == DIMENSION:
        return _dimension_comparison(sc, ell)
    assert sc.family == EXTREMAL
    if growing == "q":
        s, n = sc.s, sc.n
        space = _template_space(sc, ell)
        if d > space.diameter:
            raise ValueError(f"d={d} exceeds the metric diameter {space.diameter}")
        expo = singleton_exponent(space, d)
        k_star = expo // ell
        if k_star < 1:
            raise ValueError("extremal family is empty: Singleton exponent below ell")
        return Fraction(0), Fraction(ell * (n * s + 1 - k_star)), 0
    if growing == "ell":
        # the middle-field dimension settles to s(n-d+1) once m >= n
        return Fraction(sc.s * (d - 1) + 1), Fraction(0), 0
    # only Hamming and rank get here: other sum-rank limits classify as unknown
    if sc.metric == HAMMING:
        if growing == "n":
            # ell*k(n) = m(n-d+1) exactly (ell divides m), so the comparison
            # exponent is the constant ell + m(d-1)
            return Fraction(0), Fraction(ell + ell * sc.s * (d - 1)), 0
        if d > sc.n:
            raise ValueError(f"d={d} exceeds the Hamming diameter n={sc.n}")
        # growing == "s": ell*(s(d-1)+1)
        return Fraction(ell * (d - 1)), Fraction(ell), 0
    if growing == "n":
        m = ell * sc.s
        if d > m:
            raise ValueError(f"d={d} exceeds the eventual rank diameter m={m}")
        # ell*k(n) = n(m-d+1) - rem(n) with rem oscillating in [0, ell);
        # constants use the full amplitude ell, the closed-form worst case
        return Fraction(d - 1), Fraction(ell), ell
    if d > sc.n:
        raise ValueError(f"d={d} exceeds the eventual rank diameter n={sc.n}")
    return Fraction(ell * (d - 1)), Fraction(ell), 0


def _dimension_comparison(sc: Scenario, ell: int) -> tuple[Fraction, Fraction, int]:
    a, b = sc.dim_slope, sc.dim_intercept
    if sc.growing in ("q", "ell"):
        if a != 0:
            raise ValueError(
                "a dimension cannot grow with q; it counts coordinates"
                if sc.growing == "q"
                else "growing ell needs a constant dimension k"
            )
        k = b
        ns = sc.n * sc.s
        if k.denominator != 1:
            raise ValueError(f"dimension k={k} is not an integer")
        if not 1 <= k <= ns:
            raise ValueError(f"k={k} out of range [1, {ns}]")
        if sc.growing == "ell":
            return ns + 1 - k, Fraction(0), 0
        return Fraction(0), Fraction(ell) * (ns + 1 - k), 0
    if sc.growing == "n":
        slope = Fraction(ell) * (sc.s - a)
        intercept = Fraction(ell) * (1 - b)
    else:  # growing == "s"
        slope = Fraction(ell) * (sc.n - a)
        intercept = Fraction(ell) * (1 - b)
    if slope < 0 or (slope == 0 and intercept < ell):
        raise ValueError("dimension eventually exceeds the ambient dimension ns")
    return slope, intercept, 0


# ---------------------------------------------------------------------------
# nonlinear families
# ---------------------------------------------------------------------------


def _classify_nonlinear(sc: Scenario) -> Classification:
    if sc.growing not in ("q", "n"):
        raise UnsupportedAsymptotics(
            "nonlinear classification supports growing q and n; "
            "for m -> infinity limits use a linear scenario"
        )
    source = f"exponent comparison, nonlinear, growing {sc.growing}"
    # a nonlinear family's words live in F_{q^s}^n: the template's ell is 1
    space = _template_space(sc, 1)
    m = space.m
    ambient = (
        _exponential(sc, Fraction(0), Fraction(m * sc.n))
        if sc.growing == "q"
        else _exponential(sc, Fraction(m), Fraction(0))
    )
    vol = volume_growth(space, sc.d - 1, sc.growing)
    if sc.family == GV:
        _refuse_gv_past_diameter(sc, 1)
        return _verdict_from_ratio(ambient / vol, sc, 0, _nonlinear_upper, source)
    size = _nonlinear_size(sc, space)
    ratio = vol * (size * size) / ambient
    return _verdict_from_ratio(ratio, sc, 0, _nonlinear_upper, source)


def _nonlinear_size(sc: Scenario, space: AmbientSpace) -> GrowthProfile:
    if sc.family == CARDINALITY:
        return GrowthProfile(sc.card_coeff, sc.growing, sc.card_slope, sc.card_intercept)
    assert sc.family == EXTREMAL
    d, m = sc.d, space.m
    if sc.growing == "q":
        if d > space.diameter:
            raise ValueError(f"d={d} exceeds the metric diameter {space.diameter}")
        expo = singleton_exponent(space, d)
        if expo < 1:
            raise ValueError("extremal family is empty at this distance")
        return _exponential(sc, Fraction(0), Fraction(expo))
    # only Hamming and rank get here: other sum-rank limits classify as unknown
    if sc.metric == HAMMING:
        return _exponential(sc, Fraction(m), Fraction(m * (1 - d)))
    if d > m:
        raise ValueError(f"d={d} exceeds the eventual rank diameter m={m}")
    return _exponential(sc, Fraction(m - d + 1), Fraction(0))


# ---------------------------------------------------------------------------
# sum-rank thresholds and the (t, eta) region grid
# ---------------------------------------------------------------------------


def msrd_theta(m: int, eta: int, t: int, d: int) -> Fraction:
    """Threshold theta compared against the linearity degree to decide the
    density of extremal sum-rank families as q grows:

        theta = (d-1) (min(m, eta) - (d-1)/t) + z^2/t - z,   z = (d-1) mod t.
    """
    if m < 1 or eta < 1 or t < 1:
        raise ValueError("m, eta, t must be positive")
    if not 2 <= d <= t * min(m, eta) + 1:
        raise ValueError(f"d={d} out of range [2, {t * min(m, eta) + 1}]")
    z = (d - 1) % t
    return (d - 1) * (min(m, eta) - Fraction(d - 1, t)) + Fraction(z * z, t) - z


def msrd_eta_region(t_max: int, eta_max: int) -> list[tuple[int, int, str]]:
    """Grid of (t, eta) cells for prime-field-linear extremal sum-rank
    families as q grows: dense when eta < 2/sqrt(t), sparse when
    eta > (t+2)^2/(4t), otherwise unclassified by this corollary.  Both
    comparisons are exact (squared / cross-multiplied)."""
    if t_max < 1 or eta_max < 1:
        raise ValueError("t_max and eta_max must be positive")
    out = []
    for t in range(1, t_max + 1):
        for eta in range(1, eta_max + 1):
            if eta * eta * t < 4:
                label = DENSE
            elif 4 * t * eta > (t + 2) ** 2:
                label = SPARSE
            else:
                label = "unclassified"
            out.append((t, eta, label))
    return out


# ---------------------------------------------------------------------------
# finite-parameter probes
# ---------------------------------------------------------------------------


def instantiate(sc: Scenario, value: int) -> dict:
    """Concrete parameters of the scenario at one probe value of the growing
    parameter: q, ell, s, n, t plus the family's exact size at that point."""
    params = {"q": sc.q, "n": sc.n, "ell": sc.ell, "s": sc.s}
    params[sc.growing] = value
    if sc.growing == "q" and prime_power(value) is None:
        raise ValueError(f"probe q={value} is not a prime power")
    if value < 1:
        raise ValueError(f"probe value must be positive, got {value}")
    q, n, ell, s = params["q"], params["n"], params["ell"], params["s"]
    t = sc.t
    if n % t:
        raise ValueError(f"probe n={n} is not a multiple of t={t}")
    ell_ambient = 1 if ell == 0 else ell
    space = AmbientSpace(q, ell_ambient, s, n, sc.metric, t=t)
    out = {"q": q, "n": n, "ell": ell, "s": s, "t": t, "space": space}
    d = sc.d
    if sc.nonlinear:
        if sc.family == EXTREMAL:
            out["size"] = q ** singleton_exponent(space, d)
            if out["size"] < 2:
                raise ValueError(f"extremal family has a single word at probe {value}")
        elif sc.family == GV:
            out["size"] = -(-space.size // ball_volume(space, d - 1))
            if out["size"] < 2:
                raise ValueError(f"existence-bound family collapses at probe {value}")
        else:
            expo = sc.card_slope * value + sc.card_intercept
            if expo.denominator != 1:
                raise ValueError(f"cardinality exponent {expo} is not an integer at probe {value}")
            out["size"] = sc.card_coeff * Fraction(q) ** int(expo)
        return out
    ns = n * (space.m // ell)
    if sc.family == EXTREMAL:
        expo = singleton_exponent(space, d)
        out["k"] = expo // ell
        if out["k"] < 1:
            raise ValueError(f"extremal family is empty at probe {value}")
    elif sc.family == GV:
        vol = ball_volume(space, d - 1)
        k = 0
        while q ** (ell * k) * vol < space.size:
            k += 1
        out["k"] = max(k, 1)
    else:
        k = sc.dim_slope * value + sc.dim_intercept
        if k.denominator != 1 or not 1 <= k <= ns:
            raise ValueError(f"dimension k={k} invalid at probe {value}")
        out["k"] = int(k)
    return out


def ratio_probe(sc: Scenario, probe_values: list[int]) -> list[tuple[int, Fraction]]:
    """Exact comparison ratio at each probe point: v * q^(-ell(ns+1-k)) for
    linear families, v * S^2 / q^(mn) for nonlinear ones."""
    rows = []
    for value in probe_values:
        inst = instantiate(sc, value)
        space: AmbientSpace = inst["space"]
        v = ball_volume(space, sc.d - 1)
        if sc.nonlinear:
            rho = Fraction(v) * inst["size"] ** 2 / space.size
        else:
            ell = inst["ell"]
            s_eff = space.m // ell
            ns = inst["n"] * s_eff
            rho = Fraction(v, inst["q"] ** (ell * (ns + 1 - inst["k"])))
        rows.append((value, rho))
    return rows


# ---------------------------------------------------------------------------
# specialized closed-form verdicts (cross-checks for the generic comparison)
# ---------------------------------------------------------------------------


def specialized_verdict(sc: Scenario) -> Classification | None:
    """Closed-form threshold verdict where one applies, else None.

    These restate the per-metric extremal results (and the
    Gilbert-Varshamov probability statements) and exist to cross-check
    :func:`classify`; any disagreement is a bug in one of the two routes.
    """
    if sc.d == 1:
        return None
    if sc.family == GV:
        return _specialized_gv(sc)
    if sc.family != EXTREMAL:
        return None
    if sc.nonlinear:
        return _specialized_nonlinear(sc)
    if sc.metric == HAMMING:
        return _specialized_hamming(sc)
    if sc.metric == RANK:
        return _specialized_rank(sc)
    return _specialized_sumrank(sc)


def _specialized_gv(sc: Scenario) -> Classification | None:
    src = "Gilbert-Varshamov attainment probability"
    if sc.nonlinear:
        if sc.growing in ("q", "n"):
            return Classification(SPARSE, src)
        return None
    if sc.growing in ("q", "ell"):
        return Classification(DENSE, src)
    q = sc.q
    return Classification(
        NOT_DENSE, src, Fraction(q**sc.ell, q**sc.ell + 1)
    )


def _specialized_nonlinear(sc: Scenario) -> Classification | None:
    d = sc.d
    if sc.metric == HAMMING:
        if sc.growing == "q" and sc.n >= 2 and d <= sc.n:
            return Classification(SPARSE, "nonlinear MDS sparsity")
        if sc.growing == "n" and d >= 2:
            return Classification(SPARSE, "nonlinear MDS sparsity")
        return None
    if sc.metric == RANK:
        m = sc.s * (1 if sc.ell == 0 else sc.ell)
        if sc.growing == "q" and m >= 2 and sc.n >= 2 and d <= min(sc.n, m):
            return Classification(SPARSE, "nonlinear MRD sparsity")
        if sc.growing == "n" and m >= 2 and d <= m:
            return Classification(SPARSE, "nonlinear MRD sparsity")
        return None
    if sc.growing == "q":
        eta = sc.n // sc.t
        m = sc.s * (1 if sc.ell == 0 else sc.ell)
        if d <= sc.t * min(m, eta):
            return Classification(SPARSE, "nonlinear MSRD sparsity")
    return None


def _specialized_hamming(sc: Scenario) -> Classification | None:
    d = sc.d
    src = "MDS threshold"
    if sc.growing == "q":
        return Classification(DENSE, src) if d <= sc.n else None
    if sc.growing == "ell":
        return Classification(DENSE, src) if d <= sc.n else None
    if sc.growing == "n":
        return Classification(SPARSE, src) if d >= 2 else None
    if sc.n >= 2 and 2 <= d <= sc.n:
        c = Fraction(binom(sc.n, d - 1), sc.q**sc.ell)
        return Classification(NOT_DENSE, src, 1 / (1 + c))
    return None


def _specialized_rank(sc: Scenario) -> Classification | None:
    d = sc.d
    src = "MRD threshold"
    if sc.growing == "q":
        ell, s, n = sc.ell, sc.s, sc.n
        m = ell * s
        if not 2 <= d <= min(n, m):
            return None
        notes = ()
        if n <= m:
            threshold = Fraction((d - 1) * (n - d + 1))
        else:
            rem = n * (d - 1) - ell * (-(-(n * (d - 1)) // ell))
            threshold = Fraction((d - 1) * (m - d + 1) + rem)
            notes = (
                "quasi-extremal branch: remainder term n(d-1) - ell*ceil(n(d-1)/ell) "
                "is nonpositive by this convention",
            )
        if threshold < ell:
            return Classification(DENSE, src, notes=notes)
        if threshold > ell:
            return Classification(SPARSE, src, notes=notes)
        return Classification(NOT_DENSE, src, Fraction(1, 2), notes=notes)
    if sc.growing == "ell":
        return Classification(DENSE, src) if sc.n >= 3 and d <= sc.n else None
    if sc.growing == "s":
        if sc.n >= 3 and 2 <= d <= sc.n:
            q, ell = sc.q, sc.ell
            return Classification(
                NOT_DENSE, src, Fraction(q**ell, q**ell + qbinom(sc.n, d - 1, q))
            )
        return None
    m = sc.ell * sc.s
    if 2 <= d <= m:
        c = Fraction(qbinom(m, d - 1, sc.q), sc.q ** (2 * sc.ell))
        return Classification(NOT_DENSE, src, 1 / (1 + c))
    return None


def _specialized_sumrank(sc: Scenario) -> Classification | None:
    if sc.growing != "q":
        return None
    d, ell, s, t = sc.d, sc.ell, sc.s, sc.t
    m = ell * s
    eta = sc.n // t
    if not 2 <= d <= t * min(m, eta):
        return None
    src = "MSRD theta threshold"
    theta = msrd_theta(m, eta, t, d)
    z = (d - 1) % t
    notes = ()
    if eta <= m:
        threshold = theta
    else:
        frac = Fraction(eta * (d - 1), ell)
        rem = ell * (-(-eta * (d - 1) // ell) - frac)
        threshold = theta - rem
        notes = (
            "quasi-extremal branch: remainder term ell*(ceil(eta(d-1)/ell) - eta(d-1)/ell) "
            "is nonnegative by this convention",
        )
    if threshold < ell:
        return Classification(DENSE, src, notes=notes)
    if threshold > ell:
        return Classification(SPARSE, src, notes=notes)
    return Classification(NOT_DENSE, src, Fraction(1, 1 + binom(t, z)), notes=notes)
