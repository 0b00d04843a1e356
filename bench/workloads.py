"""The unit calls of the three benchmark workloads.

Each workload has a fixed *pool* of unit calls, and ``plan(workload, seed)``
draws the calls of one run from it: the seed picks the Monte Carlo stream
seeds and shuffles the order.  Every call in a pool has a reference digest
in ``reference.json``, so any seed's run is checked exactly.

Calls reach the library through ``late``, which looks the function up on
its module when the call runs, never a reference taken while planning, so
the tracer's wrappers see every call.  Input grids are written
out here instead of borrowing the library's private case generators, so a
later refactor of those helpers cannot silently change what is measured.
Why each workload holds what it holds is in NOTES.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from codedensity import bounds, classifier, combinat, harness, metrics
from codedensity.bounds import CodeFamilySpec
from codedensity.classifier import Scenario
from codedensity.metrics import AmbientSpace

WORKLOADS = ("exhaustive", "monte-carlo", "closed-form")


@dataclass(frozen=True)
class Call:
    """One unit call: ``key`` names its inputs and indexes the reference
    digests; ``expect`` holds the exact tracer counts the call contributes."""

    key: str
    run: Callable[[], object]
    expect: dict = field(default_factory=dict)


def late(module, name: str, *args):
    """Call ``module.name(*args)``, looking the name up only now, so that a
    tracer wrapper installed after the plan was built is the one called."""
    return getattr(module, name)(*args)


def label(space: AmbientSpace) -> str:
    t = f",t={space.t}" if space.metric == "sumrank" else ""
    return f"{space.metric}(q={space.q},ell={space.ell},s={space.s},n={space.n}{t})"


def subspace_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, computed here
    independently of the library so the enumeration count check is real."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# exhaustive: exact histograms and the desk oracle checks
# ---------------------------------------------------------------------------

# The one large desk histogram kept in the slice: 93093 subspaces scored.
# The other five desk histograms of that size take 3.5-11 s each and are
# left out so that one cold run stays near 7 s.
LARGE_LINEAR = ((AmbientSpace(2, 2, 2, 3, "hamming"), 2, 2),)
SMALL_LINEAR_LIMIT = 10**4

# Subset walks beyond the desk grid, on spaces of 64 and 81 words.  The
# S = 4 walks on 64 words (635376 sets, 2-5 s each) are left out to keep one
# cold run near 7 s; these S = 3 walks cover the same three metrics.
LARGE_SUBSETS = (
    (AmbientSpace(2, 1, 2, 3, "hamming"), 3),
    (AmbientSpace(2, 1, 3, 2, "rank"), 3),
    (AmbientSpace(3, 1, 1, 4, "sumrank", t=2), 3),
)

VOLUME_SPACE_LIMIT = 2**12
REDUCTION_TRIPLES = ((2, 1, 2), (2, 2, 2), (2, 1, 4), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def _desk_metrics(q: int, ell: int, s: int, n: int) -> list[AmbientSpace]:
    spaces = [AmbientSpace(q, ell, s, n, "hamming"), AmbientSpace(q, ell, s, n, "rank")]
    spaces += [AmbientSpace(q, ell, s, n, "sumrank", t=t) for t in range(2, n + 1) if n % t == 0]
    return spaces


def desk_linear_cases():
    """(space, ell, k) of the desk bracket grid, each histogram once."""
    for ell, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for n in (1, 2, 3):
            ns = n * s
            for space in _desk_metrics(2, ell, s, n):
                for k in range(1, ns + 1):
                    if subspace_count(ns, k, 2**ell) <= 10**5:
                        yield space, ell, k


def desk_subset_cases():
    for q in (2, 3):
        for n in (2, 3):
            for space in _desk_metrics(q, 1, 1, n):
                for size in (2, 3, 4):
                    yield space, size


def volume_spaces(limit: int) -> list[AmbientSpace]:
    spaces = []
    for q in (2, 3):
        for m in range(1, 5):
            for n in range(1, 5):
                if q ** (m * n) > limit:
                    continue
                spaces.append(AmbientSpace(q, 1, m, n, "hamming"))
                spaces.append(AmbientSpace(q, 1, m, n, "rank"))
                for t in (1, 2, 4):
                    if n % t == 0:
                        spaces.append(AmbientSpace(q, 1, m, n, "sumrank", t=t))
    return spaces


def exhaustive_pool() -> list[Call]:
    calls = []
    for space, ell, k in desk_linear_cases():
        count = subspace_count(space.n * (space.m // ell), k, 2**ell)
        if count > SMALL_LINEAR_LIMIT and (space, ell, k) not in LARGE_LINEAR:
            continue
        calls.append(
            Call(
                f"linear {label(space)} ell={ell} k={k}",
                partial(late, harness, "linear_distance_histogram", space, ell, k),
                {"fields.enumerate_subspaces.yielded": count},
            )
        )
    for space, size in itertools.chain(desk_subset_cases(), LARGE_SUBSETS):
        calls.append(Call(f"subset {label(space)} S={size}", partial(late, harness, "subset_distance_histogram", space, size)))
    for space in volume_spaces(VOLUME_SPACE_LIMIT):
        calls.append(Call(f"volume {label(space)}", partial(late, harness, "volume_verification", [space])))
    for q, m, n in REDUCTION_TRIPLES:
        calls.append(Call(f"reduction q={q} m={m} n={n}", partial(late, harness, "reduction_verification", q, 1, m, n)))
    return calls


# ---------------------------------------------------------------------------
# monte-carlo: seeded estimates with exact Clopper-Pearson intervals
# ---------------------------------------------------------------------------

ESTIMATE_SEEDS = tuple(range(1729, 1729 + 16))

# (name, space, family, trials, estimates per run).  The first is a
# criterion-8 scenario at the `estimate --trials 10000` size, where the
# interval dominates; the sweep covers spaces beyond the exhaustive guard,
# where weight tables, per-trial Philox set-up and sampling dominate.
MC_CASES = (
    ("crit8-hamming", AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 2, dim=1), 10_000, 2),
    ("sweep-hamming", AmbientSpace(2, 2, 2, 4, "hamming"), CodeFamilySpec(2, 3, dim=4), 2000, 1),
    ("sweep-rank", AmbientSpace(2, 1, 4, 4, "rank"), CodeFamilySpec(1, 2, dim=4), 2000, 1),
    ("sweep-sumrank", AmbientSpace(2, 1, 2, 6, "sumrank", t=3), CodeFamilySpec(1, 3, dim=3), 2000, 2),
    ("sweep-nonlinear", AmbientSpace(3, 1, 1, 6, "hamming"), CodeFamilySpec(0, 3, size=12), 2000, 2),
)


def _estimate_call(name, space, spec, trials, seed) -> Call:
    return Call(
        f"estimate {name} trials={trials} seed={seed}",
        partial(late, harness, "estimate_density", space, spec, trials, seed),
        {"harness.trial_generator.calls": trials, "harness.clopper_pearson.calls": 1},
    )


def monte_carlo_pool() -> list[Call]:
    return [
        _estimate_call(name, space, spec, trials, seed)
        for name, space, spec, trials, _ in MC_CASES
        for seed in ESTIMATE_SEEDS
    ]


# ---------------------------------------------------------------------------
# closed-form: volumes, brackets, bounds and the classifier at large parameters
# ---------------------------------------------------------------------------

# Sum-rank spaces F_{1009^4}^(4t) with t blocks of length 4; the composition
# walk in ball_volume grows exponentially in t.  Each entry is (t, radii).
SUMRANK_RADII = ((4, (4, 8, 12)), (5, (5, 10, 15)), (6, (6, 12)), (7, (7,)), (8, (8,)))

# Large-q and large-n rank and Hamming spaces: (space, linearity, dims, d values).
# Their cost is big-integer Gaussian binomials and Fraction arithmetic, which
# no composition walk touches.
WIDE_CASES = (
    (AmbientSpace(2, 200, 1, 400, "rank"), 200, (4,), (5, 65)),
    (AmbientSpace(65537, 16, 1, 128, "rank"), 16, (4, 16), (5, 16)),
    (AmbientSpace(65537, 1, 1, 400, "hamming"), 1, (50,), (11, 101)),
    (AmbientSpace(256, 1, 1, 1000, "hamming"), 1, (990,), (11,)),
)
QBINOM_ARGS = ((400, 200, 256), (200, 100, 65536), (300, 150, 256))
NONLINEAR_SIZE = 2**40

PROBES = (
    ("msrd", Scenario("sumrank", "q", "extremal", 5, ell=1, s=4, t=6, eta=4), (5, 7, 11, 101, 1009)),
    ("mrd", Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=4), (3, 5, 7, 11, 101, 1009)),
    ("mds", Scenario("hamming", "n", "extremal", 2, ell=1, q=2, s=1), (10, 100, 1000)),
)
REGION = (200, 50)


def criterion6_scenarios():
    """The generic-versus-specialized cross-check grid of criterion 6."""
    q = 2
    grid_n, grid_s, grid_ell = range(2, 7), range(1, 5), range(1, 5)
    for metric in ("hamming", "rank"):
        for n, s, ell in itertools.product(grid_n, grid_s, grid_ell):
            d_hi = n if metric == "hamming" else min(n, ell * s)
            for d in range(2, d_hi + 1):
                yield Scenario(metric, "q", "extremal", d, ell=ell, n=n, s=s)
        for s, ell in itertools.product(grid_s, grid_ell):
            d_hi = 6 if metric == "hamming" else ell * s
            for d in range(2, d_hi + 1):
                yield Scenario(metric, "n", "extremal", d, ell=ell, q=q, s=s)
        for n, s in itertools.product(grid_n, grid_s):
            for d in range(2, n + 1):
                yield Scenario(metric, "ell", "extremal", d, ell=None, q=q, n=n, s=s)
        for n, ell in itertools.product(grid_n, grid_ell):
            for d in range(2, n + 1):
                yield Scenario(metric, "s", "extremal", d, ell=ell, q=q, n=n)
    for t in range(1, 7):
        for eta in range(1, 4):
            if eta * t > 6:
                continue
            for s in range(1, 5):
                for ell in range(1, 5):
                    if eta > ell * s:
                        continue
                    for d in range(2, t * min(ell * s, eta) + 1):
                        yield Scenario("sumrank", "q", "extremal", d, ell=ell, s=s, t=t, eta=eta)


def classifier_grid_check() -> list:
    """``classify`` and ``specialized_verdict`` on every criterion-6 scenario:
    one check, like an oracle check in the exhaustive workload.  Each of its
    2588 classifier calls takes microseconds, so as separate unit calls they
    would pin the latency percentile to timer noise."""
    return [
        (late(classifier, "classify", sc), late(classifier, "specialized_verdict", sc))
        for sc in criterion6_scenarios()
    ]


def _formula_calls(space, ell, dims, d) -> list[Call]:
    tag = f"{label(space)} d={d}"
    calls = [
        Call(f"ball_volume {tag}", partial(late, metrics, "ball_volume", space, d - 1)),
        Call(f"gv_cardinality {tag}", partial(late, bounds, "gv_cardinality", space, d)),
        Call(f"singleton_max {tag}", partial(late, bounds, "singleton_max", space, d)),
        Call(f"max_linear_dimension {tag} ell={ell}", partial(late, bounds, "max_linear_dimension", space, d, ell)),
        Call(f"nonlinear_bracket {tag} S={NONLINEAR_SIZE}", partial(late, bounds, "nonlinear_bracket", space, NONLINEAR_SIZE, d)),
    ]
    for k in dims:
        calls.append(Call(f"sublinear_bracket {tag} ell={ell} k={k}", partial(late, bounds, "sublinear_bracket", space, k, ell, d)))
    return calls


def closed_form_pool() -> list[Call]:
    calls = []
    for t, radii in SUMRANK_RADII:
        space = AmbientSpace(1009, 1, 4, 4 * t, "sumrank", t=t)
        for r in radii:
            calls += _formula_calls(space, 1, (space.n * space.s // 2,), r + 1)
    for space, ell, dims, ds in WIDE_CASES:
        for d in ds:
            calls += _formula_calls(space, ell, dims, d)
    for a, b, base in QBINOM_ARGS:
        calls.append(Call(f"qbinom {a} {b} {base}", partial(late, combinat, "qbinom", a, b, base)))
    for name, sc, probes in PROBES:
        calls.append(Call(f"convergence {name} probes={probes}", partial(late, harness, "convergence_experiment", sc, list(probes))))
    calls.append(Call(f"msrd_eta_region {REGION}", partial(late, classifier, "msrd_eta_region", *REGION)))
    grid = sum(1 for _ in criterion6_scenarios())
    calls.append(Call("classifier grid criterion-6", classifier_grid_check, {"classifier.classify.calls": grid}))
    return calls


# ---------------------------------------------------------------------------
# per-run plans
# ---------------------------------------------------------------------------


def pool(workload: str) -> list[Call]:
    if workload == "exhaustive":
        return exhaustive_pool()
    if workload == "monte-carlo":
        return monte_carlo_pool()
    if workload == "closed-form":
        return closed_form_pool()
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def plan(workload: str, seed: int) -> list[Call]:
    """The unit calls of one run, in run order; a function of the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "monte-carlo":
        calls = [
            _estimate_call(name, space, spec, trials, est_seed)
            for name, space, spec, trials, reps in MC_CASES
            for est_seed in rng.sample(ESTIMATE_SEEDS, reps)
        ]
    else:
        calls = pool(workload)
    rng.shuffle(calls)
    return calls
