"""Exhaustive densities, seeded estimation, interval exactness, and the
verification suites."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from codedensity.bounds import CodeFamilySpec, nonlinear_bracket
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
from codedensity.fields import build_tower, codeword_from_int
from codedensity.metrics import AmbientSpace, distance


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
    from codedensity.harness import _CP_BITS, _ge_tail_cmp

    n, x = 50, 20
    level = Fraction(95, 100)
    half = (1 - level) / 2
    lo, hi = clopper_pearson(x, n, level)
    den = 1 << _CP_BITS
    assert _ge_tail_cmp(n, x, lo.numerator * (den // lo.denominator), den, half.numerator, half.denominator) <= 0
    above = int(lo * den) + 1
    assert _ge_tail_cmp(n, x, above, den, half.numerator, half.denominator) > 0
    # at the upper endpoint P(X <= x) is at most alpha/2, one step in it is not
    comp = 1 - half
    assert hi.denominator <= den
    at = int(hi * den)
    assert _ge_tail_cmp(n, x + 1, at, den, comp.numerator, comp.denominator) >= 0
    assert _ge_tail_cmp(n, x + 1, at - 1, den, comp.numerator, comp.denominator) < 0


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


def test_tail_side_is_chosen_by_the_threshold(monkeypatch):
    # the upper endpoint compares a tail with 1 - alpha/2; summed as the
    # complement against alpha/2, the enclosure decides without the exact sum
    from codedensity import harness

    exact_runs = []
    exact = harness._exact_ge_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_ge_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    level = 1 - Fraction(1, 10**60)
    assert clopper_pearson(120, 300, level) == _reference_clopper_pearson(120, 300, level)
    assert exact_runs == []


def test_exact_fallback_decides_ties_on_either_side(monkeypatch):
    # a threshold equal to the tail lies inside every enclosure, so the
    # exact sum runs, on the side the threshold chose
    from codedensity import harness

    exact_runs = []
    exact = harness._exact_ge_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_ge_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    # P(X >= 1) = 3/4 for X ~ Bin(2, 1/2): summed as P(2 - X >= 2) = 1/4
    assert harness._ge_tail_cmp(2, 1, 1, 2, 3, 4) == 0
    # P(X >= 2) = 1/2 for X ~ Bin(3, 1/2): summed as the tail itself
    assert harness._ge_tail_cmp(3, 2, 1, 2, 1, 2) == 0
    assert exact_runs == [(2, 2, 1, 1, 1, 4), (3, 2, 1, 1, 1, 2)]
    # with an enclosure that never decides, the fallback alone must give
    # the reference sign on both sides, ties or not
    monkeypatch.setattr(harness, "_enclosed_tail_cmp", lambda *args: None)
    thresholds = [Fraction(1, 10**9), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(999, 1000)]
    for n, x, num, den in ((2, 1, 1, 2), (3, 2, 1, 2), (50, 30, 7, 16), (40, 1, 1, 1024), (9, 9, 5, 6)):
        for t in thresholds:
            want = _reference_ge_tail_cmp(n, x, num, den, t.numerator, t.denominator)
            assert harness._ge_tail_cmp(n, x, num, den, t.numerator, t.denominator) == want, (n, x, num, t)


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
    exact = harness._exact_ge_tail_cmp
    monkeypatch.setattr(
        harness, "_exact_ge_tail_cmp", lambda *args: exact_runs.append(args) or exact(*args)
    )
    den = 1 << 21
    cases = ((50, 30, 1_000_003), (50, 10, 1_000_003), (7, 7, 5), (400, 1, 2**20), (1, 1, 3))
    for n, x, num in cases:
        tail = sum(
            Fraction(math.comb(n, j) * num**j * (den - num) ** (n - j), den**n)
            for j in range(x, n + 1)
        )
        exact_runs.clear()
        assert harness._ge_tail_cmp(n, x, num, den, tail.numerator, tail.denominator) == 0
        assert len(exact_runs) == 1
        for shift, sign in ((Fraction(1, 2**100), -1), (-Fraction(1, 2**100), 1)):
            t = tail + shift
            assert harness._ge_tail_cmp(n, x, num, den, t.numerator, t.denominator) == sign
            assert _reference_ge_tail_cmp(n, x, num, den, t.numerator, t.denominator) == sign
        assert len(exact_runs) == 1


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
    # spy: the trials whose generators each call of the linear scorer saw
    # created since the previous call, as (first, last + 1) ranges; the
    # calls that score only redraws create none and are left out
    from codedensity import harness

    batches, fresh = [], []
    make, score = harness.trial_generator, harness._min_weights

    def scored(bases, *rest):
        if fresh:
            batches.append((fresh[0], fresh[-1] + 1))
            fresh.clear()
        return score(bases, *rest)

    monkeypatch.setattr(
        harness, "trial_generator", lambda seed, i, reuse=None: fresh.append(i) or make(seed, i, reuse)
    )
    monkeypatch.setattr(harness, "_min_weights", scored)
    return batches


def _partition(trials: int, streams: int, batch: int = 256):
    # contiguous blocks, each cut into batches of its own
    bounds = [b * trials // streams for b in range(streams + 1)]
    return [
        (start, min(start + batch, stop))
        for lo, stop in zip(bounds, bounds[1:])
        for start in range(lo, stop, batch)
    ]


def test_estimate_density_stream_invariance(monkeypatch):
    import json

    from codedensity import harness

    batches = _trial_batches(monkeypatch)
    drawn, spied = [], harness.trial_generator
    monkeypatch.setattr(
        harness, "trial_generator", lambda seed, i, reuse=None: drawn.append(i) or spied(seed, i, reuse)
    )
    linear = AmbientSpace(2, 1, 2, 2, "rank"), CodeFamilySpec(1, 2, dim=2)
    nonlinear = AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=3)
    for space, spec in (linear, nonlinear):
        reports, seen = {}, {}
        for streams in (1, 3, 4, 7):  # 401 trials: no partition divides evenly
            batches.clear()
            drawn.clear()
            reports[streams] = estimate_density(space, spec, trials=401, seed=77, worker_streams=streams)
            seen[streams] = list(batches)
            assert drawn == list(range(401)), (spec, streams)  # each trial keyed once, in order
        one = reports[1]
        for streams, report in reports.items():
            assert report.worker_streams == streams
            assert report.successes == one.successes
            assert json.dumps(report.payload(), sort_keys=True) == json.dumps(one.payload(), sort_keys=True)
            if spec.linearity:
                # the partitions are real: each cuts the trials into its own batches
                assert seen[streams] == _partition(401, streams)
        assert len({tuple(b) for b in seen.values()}) == (4 if spec.linearity else 1)


def test_estimate_density_rejects_more_streams_than_trials():
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    for spec in (CodeFamilySpec(1, 2, dim=1), CodeFamilySpec(0, 2, size=2)):
        for streams in (11, 10**9, 0):
            with pytest.raises(ValueError, match="worker_streams"):
                estimate_density(space, spec, trials=10, worker_streams=streams)
        assert estimate_density(space, spec, trials=10, worker_streams=10).trials == 10


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
            score, _ = harness._scorer(space, tower, k, Guards())
            draws = rng.integers(0, tower.subfield_order, size=(300, k, ns))
            deficient = [len(fields.rref(rows.tolist(), tower)[0]) < k for rows in draws]
            weights = score(draws)
            assert [bool(w == 0) for w in weights] == deficient, (space, ell, k)
            assert 0 < sum(deficient) < len(draws) or k == 1, (space, ell, k)


def _reference_successes(space, spec, trials, seed):
    # one trial at a time: the RREF basis of an accepted draw, scored by
    # the scalar projective-class walk
    from codedensity.harness import space_tower, trial_generator
    from codedensity.fields import sample_subspace
    from codedensity.metrics import min_distance

    tower = space_tower(space, spec.linearity)
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
    ],
)
def test_batched_trials_match_one_trial_at_a_time(space, spec):
    for seed in (0, 5, 2**63 + 1):
        want = _reference_successes(space, spec, 120, seed)
        assert estimate_density(space, spec, trials=120, seed=seed).successes == want, seed
        assert estimate_density(space, spec, trials=120, seed=seed, worker_streams=7).successes == want


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


# a linear case where about one draw in seven is rank-deficient and redrawn
_REDRAW_SPACE, _REDRAW_SPEC = AmbientSpace(3, 1, 1, 3, "hamming"), CodeFamilySpec(1, 2, dim=2)


@pytest.mark.parametrize("batch", [1, 3])
def test_trial_batch_size_does_not_change_successes(monkeypatch, batch):
    from codedensity import harness

    want = [estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=50, seed=s).successes for s in (0, 9)]
    assert want == [14, 17]
    monkeypatch.setattr(harness, "_TRIAL_BATCH", batch)
    for streams in (1, 7):
        got = [
            estimate_density(_REDRAW_SPACE, _REDRAW_SPEC, trials=50, seed=s, worker_streams=streams).successes
            for s in (0, 9)
        ]
        assert got == want, streams


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


def test_nonlinear_weight_cache_is_capped(monkeypatch):
    import tracemalloc

    from codedensity import harness

    # 81 words, so pair differences repeat and a cap of 8 mixes hits and misses
    space, spec = AmbientSpace(3, 1, 1, 4, "hamming"), CodeFamilySpec(0, 2, size=5)
    want = estimate_density(space, spec, trials=300, seed=8).successes
    assert want == 114
    monkeypatch.setattr(harness, "_WEIGHT_CACHE_LIMIT", 8)
    assert estimate_density(space, spec, trials=300, seed=8).successes == want
    # on 2^64 words almost every difference is new; uncached, 100 trials of
    # 66 pairs would keep about 4 MB of them
    tracemalloc.start()
    try:
        big = AmbientSpace(2, 1, 1, 64, "hamming")
        estimate_density(big, CodeFamilySpec(0, 2, size=12), trials=100, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    ):
        tower = space_tower(space, ell)
        ns = space.n * tower.s
        for k in range(1, min(ns, 3) + 1):
            bases = list(enumerate_subspaces(k, tower, space.n))
            fast = np.concatenate(list(_code_min_weights(space, tower, k, bases)))
            assert len(fast) == len(bases)
            for basis, got in zip(bases, fast):
                assert got == min_distance(basis, space, tower=tower), (space, k, basis)


def test_scorer_needs_no_middle_field_tables(monkeypatch):
    # above fields._K_TABLE_LIMIT a tower has no index multiplication table;
    # the scorer only needs the products with the F_p-basis units
    from codedensity import fields
    from codedensity.harness import linear_distance_histogram

    spaces = (AmbientSpace(2, 2, 1, 2, "hamming"), AmbientSpace(3, 2, 1, 2, "rank"))
    expected = [linear_distance_histogram.__wrapped__(space, 2, 1) for space in spaces]
    # towers are shared per (p, ell, s): build fresh ones under the patch,
    # and leave no table-less tower to later tests
    fields.build_tower.cache_clear()
    monkeypatch.setattr(fields, "_K_TABLE_LIMIT", 1)
    try:
        for space, want in zip(spaces, expected):
            assert fields.build_tower(space.q, 2, 1)._k_mul_table is None
            assert linear_distance_histogram.__wrapped__(space, 2, 1) == want
        with pytest.raises(ValueError, match="nonzero code"):
            linear_distance_histogram.__wrapped__(spaces[0], 2, 0)
    finally:
        fields.build_tower.cache_clear()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("metric,t", [("hamming", 1), ("rank", 1), ("sumrank", 2)])
def test_weight_table_matches_metric_weight(q, metric, t):
    from codedensity.harness import space_tower
    from codedensity.metrics import _flat_weight_table, weight

    for ell, s in ((1, 2), (2, 1)):
        space = AmbientSpace(q, ell, s, 2, metric, t=t)
        tower = space_tower(space, ell)
        table = _flat_weight_table(space, tower, space.size)
        ns = space.n * tower.s
        q_mid = tower.subfield_order
        assert table.dtype == np.uint8 and table.shape == (q_mid**ns,)
        for vec in itertools.product(range(q_mid), repeat=ns):
            index = sum(v * q_mid**i for i, v in enumerate(vec))
            assert table[index] == weight(space, tower.unflatten(vec, space.n)), (space, vec)


def test_chunked_scoring_matches_one_code_per_chunk(monkeypatch):
    # default chunks split these runs several times; a chunk constant of 1
    # scores one code at a time, and both must give the same exact results
    from codedensity import harness

    hist_space = AmbientSpace(2, 1, 2, 4, "hamming")  # 10795 codes, 2048 per chunk
    est_space = AmbientSpace(2, 1, 2, 3, "rank")  # 1024 codes per chunk
    spec = CodeFamilySpec(1, 2, dim=3)
    hist = harness.linear_distance_histogram.__wrapped__(hist_space, 1, 2)
    report = estimate_density(est_space, spec, trials=3000, seed=11)
    monkeypatch.setattr(harness, "_CHUNK_WORDS", 1)
    assert harness.linear_distance_histogram.__wrapped__(hist_space, 1, 2) == hist
    assert estimate_density(est_space, spec, trials=3000, seed=11).payload() == report.payload()
    assert sum(c for _, c in hist) == 10795


def test_subset_histogram_total():
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    hist = dict(subset_distance_histogram(space, 2))
    assert sum(hist.values()) == 6
    assert hist[1] == 4 and hist[2] == 2
    for size in (0, 1):
        with pytest.raises(ValueError, match="two codewords"):
            subset_distance_histogram.__wrapped__(space, size)


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


CRITERION_2_NONLINEAR_SPACES = [
    AmbientSpace(q, 1, 1, n, metric, t=t)
    for q in (2, 3)
    for n in (2, 3)
    for metric, t in [("hamming", 1), ("rank", 1), ("sumrank", 2), ("sumrank", 3)]
    if n % t == 0
]


@pytest.mark.parametrize("size", [2, 3])
def test_subset_histogram_matches_a_walk_with_metric_distance(size):
    spaces = list(CRITERION_2_NONLINEAR_SPACES)
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


def test_whole_space_subset_walk_builds_no_pair_table():
    # 3^9 words: a table of all pair distances would hold 387 M entries
    import tracemalloc

    tracemalloc.start()
    try:
        hist = subset_distance_histogram.__wrapped__(AmbientSpace(3, 1, 1, 9, "hamming"), 3**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist == ((1, 1),)
    assert peak < 1 << 24


def test_reduction_check_counts_pointwise_mismatches(monkeypatch):
    # negative control: one wrong Hamming weight must surface as exactly one
    # mismatch of the eta=1 pair, while the t=1 pair still agrees
    from codedensity import harness

    table_of = harness._flat_weight_table

    def one_wrong_hamming_weight(space, tower, limit):
        table = table_of(space, tower, limit)
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
