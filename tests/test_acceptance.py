"""Acceptance criteria.

Each test prints one `ACCEPTANCE <n> <name>: PASS` line; a failure raises
with the offending derivations.  Tolerances are exact rational comparisons
except where a runtime budget is stated.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction

from codedensity.bounds import CodeFamilySpec, nonlinear_bracket, sublinear_bracket
from codedensity.classifier import (
    DENSE,
    NOT_DENSE,
    SPARSE,
    Scenario,
    classify,
    msrd_eta_region,
    specialized_verdict,
)
from codedensity.combinat import binom, is_prime, qbinom
from codedensity.fields import build_tower, codeword_from_int
from codedensity.guards import Guards
from codedensity.harness import (
    DEFAULT_SEED,
    _criterion_volume_spaces,
    estimate_density,
    exact_density,
    linear_distance_histogram,
    subset_distance_histogram,
    volume_verification,
)
from codedensity.metrics import (
    AmbientSpace,
    ball_volume,
    min_distance,
    volume_growth,
    weight,
)


def _report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - started:.1f}s)")


def test_criterion_1_volume_correctness():
    started = time.time()
    spaces = _criterion_volume_spaces(2**16)
    verdicts = volume_verification(spaces)
    failures = [v for v in verdicts if not v.passed]
    assert not failures, failures[:5]
    elapsed = time.time() - started
    assert elapsed < 120, f"volume grid exceeded 2 minutes: {elapsed:.0f}s"
    _report(1, "volume closed forms equal enumeration", started)


def test_criterion_2_bracket_containment():
    started = time.time()
    guards = Guards()
    failures = []
    for q in (2, 3):
        for n in (2, 3):
            spaces = [AmbientSpace(q, 1, 1, n, "hamming"), AmbientSpace(q, 1, 1, n, "rank")]
            spaces += [
                AmbientSpace(q, 1, 1, n, "sumrank", t=t)
                for t in range(2, n + 1)
                if n % t == 0
            ]
            for space in spaces:
                for size in (2, 3, 4):
                    hist = subset_distance_histogram(space, size, guards)
                    total = sum(c for _, c in hist)
                    for d in range(1, space.diameter + 2):
                        density = Fraction(
                            sum(c for dist, c in hist if dist >= d), total
                        )
                        bracket, _ = nonlinear_bracket(space, size, d)
                        if not bracket.contains(density):
                            failures.append((space, size, d, density, bracket))
    for ell, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for n in (1, 2, 3):
            spaces = [
                AmbientSpace(2, ell, s, n, "hamming"),
                AmbientSpace(2, ell, s, n, "rank"),
            ]
            spaces += [
                AmbientSpace(2, ell, s, n, "sumrank", t=t)
                for t in range(2, n + 1)
                if n % t == 0
            ]
            ns = n * s
            for space in spaces:
                for k in range(1, ns + 1):
                    if qbinom(ns, k, 2**ell) > 10**5:
                        continue
                    hist = linear_distance_histogram(space, ell, k, guards)
                    total = sum(c for _, c in hist)
                    for d in range(1, space.diameter + 2):
                        density = Fraction(
                            sum(c for dist, c in hist if dist >= d), total
                        )
                        bracket, _ = sublinear_bracket(space, k, ell, d)
                        if not bracket.contains(density):
                            failures.append((space, k, d, density, bracket))
    assert not failures, failures[:5]
    elapsed = time.time() - started
    assert elapsed < 600, f"bracket grid exceeded 10 minutes: {elapsed:.0f}s"
    _report(2, "exhaustive densities inside brackets", started)


def test_criterion_3_tightness_witnesses():
    started = time.time()
    space = AmbientSpace(2, 1, 1, 2, "hamming")
    bracket, _ = nonlinear_bracket(space, 2, 2)
    density = exact_density(space, CodeFamilySpec(0, 2, size=2))
    assert bracket.lower == bracket.upper == density == Fraction(1, 3)
    lspace = AmbientSpace(2, 1, 2, 2, "hamming")
    lbracket, _ = sublinear_bracket(lspace, 1, 1, 2)
    ldensity = exact_density(lspace, CodeFamilySpec(1, 2, dim=1))
    assert lbracket.lower == lbracket.upper == ldensity == Fraction(3, 5)
    _report(3, "tight worked cases reproduce exactly", started)


def test_criterion_4_metric_reductions():
    started = time.time()
    for q, m, n in ((2, 1, 2), (2, 1, 4), (2, 2, 2), (2, 3, 1), (2, 2, 3), (3, 1, 2), (3, 2, 1)):
        if q ** (m * n) > 2**12:
            continue
        rank_sp = AmbientSpace(q, 1, m, n, "rank")
        sr_one = AmbientSpace(q, 1, m, n, "sumrank", t=1)
        ham_sp = AmbientSpace(q, 1, m, n, "hamming")
        sr_unit = AmbientSpace(q, 1, m, n, "sumrank", t=n)
        for r in range(rank_sp.diameter + 1):
            assert ball_volume(sr_one, r) == ball_volume(rank_sp, r)
        for r in range(ham_sp.diameter + 1):
            assert ball_volume(sr_unit, r) == ball_volume(ham_sp, r)
        tower = build_tower(q, 1, m)
        words = [codeword_from_int(v, tower, n) for v in range(q ** (m * n))]
        for word in words:
            assert weight(sr_one, word) == weight(rank_sp, word)
            assert weight(sr_unit, word) == weight(ham_sp, word)
        # minimum distances agree on the exhaustive codeword set itself
        assert min_distance(words, sr_one) == min_distance(words, rank_sp)
        assert min_distance(words, sr_unit) == min_distance(words, ham_sp)
        # and on every pair drawn from a fixed deterministic sweep
        sample = words[:: max(1, len(words) // 16)]
        for pair in itertools.combinations(sample, 2):
            assert min_distance(pair, sr_one) == min_distance(pair, rank_sp)
            assert min_distance(pair, sr_unit) == min_distance(pair, ham_sp)
    _report(4, "sum-rank reductions to rank and Hamming", started)


def test_criterion_5_classifier_verdicts():
    started = time.time()
    # extremal Hamming families
    assert classify(Scenario("hamming", "q", "extremal", 2, ell=1, n=4, s=2)).verdict == DENSE
    assert classify(Scenario("hamming", "ell", "extremal", 2, ell=None, q=2, n=4, s=2)).verdict == DENSE
    assert classify(Scenario("hamming", "n", "extremal", 2, ell=1, q=2, s=1)).verdict == SPARSE
    # nonlinear extremal families sparse as the field grows
    assert classify(Scenario("hamming", "q", "extremal", 2, ell=0, n=3, s=1)).verdict == SPARSE
    assert classify(Scenario("rank", "q", "extremal", 2, ell=0, n=3, s=3)).verdict == SPARSE
    assert classify(Scenario("sumrank", "q", "extremal", 2, ell=0, s=2, t=2, eta=2)).verdict == SPARSE
    # rank thresholds around ell vs (d-1)(n-d+1)
    assert classify(Scenario("rank", "q", "extremal", 3, ell=1, n=4, s=4)).verdict == SPARSE
    assert classify(Scenario("rank", "q", "extremal", 2, ell=3, n=3, s=1)).verdict == DENSE
    tie = classify(Scenario("rank", "q", "extremal", 2, ell=2, n=3, s=2))
    assert (tie.verdict, tie.upper_bound) == (NOT_DENSE, Fraction(1, 2))
    assert classify(Scenario("rank", "ell", "extremal", 2, ell=None, q=2, n=3, s=1)).verdict == DENSE
    # the three closed-form not-dense ceilings, as exact rationals
    out = classify(Scenario("hamming", "s", "extremal", 2, ell=1, q=2, n=4))
    assert out.upper_bound == 1 / (1 + Fraction(binom(4, 1), 2))
    out = classify(Scenario("rank", "s", "extremal", 2, ell=1, q=2, n=3))
    assert out.upper_bound == Fraction(2, 2 + qbinom(3, 1, 2))
    out = classify(Scenario("rank", "n", "extremal", 2, ell=1, q=2, s=2))
    assert out.upper_bound == 1 / (1 + Fraction(qbinom(2, 1, 2), 4))
    # the four sum-rank table rows
    assert classify(Scenario("sumrank", "q", "extremal", 5, ell=1, s=1, t=10, eta=1)).verdict == DENSE
    for t in range(1, 11):
        assert classify(Scenario("sumrank", "q", "extremal", 2, ell=1, s=2, t=t, eta=2)).verdict == NOT_DENSE
    for eta in (2, 3, 4):
        assert classify(Scenario("sumrank", "q", "extremal", 5, ell=1, s=eta, t=10, eta=eta)).verdict == SPARSE
    for t in range(1, 11):
        assert classify(Scenario("sumrank", "q", "extremal", 3, ell=1, s=3, t=t, eta=3)).verdict == SPARSE
    # region grid on t <= 10, eta <= 4 against the expected cell pattern,
    # and soundness of every decided cell against the classifier
    dense_cells = {(1, 1), (2, 1), (3, 1)}
    sparse_cells = {(t, 3) for t in range(1, 8)} | {(t, 4) for t in range(1, 11)}
    for t, eta, label in msrd_eta_region(10, 4):
        if (t, eta) in dense_cells:
            assert label == DENSE, (t, eta, label)
        elif (t, eta) in sparse_cells:
            assert label == SPARSE, (t, eta, label)
        else:
            assert label == "unclassified", (t, eta, label)
        if label != "unclassified":
            for d in range(2, t * eta + 1):
                sc = Scenario("sumrank", "q", "extremal", d, ell=1, s=eta, t=t, eta=eta)
                assert classify(sc).verdict == label, (t, eta, d)
    _report(5, "classifier matches the closed-form verdicts", started)


def _criterion6_scenarios():
    q = 2
    grid_n, grid_s, grid_ell = range(2, 7), range(1, 5), range(1, 5)
    for metric in ("hamming", "rank"):
        for n, s, ell in itertools.product(grid_n, grid_s, grid_ell):
            m = ell * s
            d_hi = n if metric == "hamming" else min(n, m)
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
            n = eta * t
            if n > 6:
                continue
            for s in range(1, 5):
                for ell in range(1, 5):
                    if eta > ell * s:
                        continue
                    for d in range(2, t * min(ell * s, eta) + 1):
                        yield Scenario("sumrank", "q", "extremal", d, ell=ell, s=s, t=t, eta=eta)


def test_criterion_6_generic_vs_specialized():
    started = time.time()
    checked = 0
    for sc in _criterion6_scenarios():
        expected = specialized_verdict(sc)
        if expected is None:
            continue
        try:
            got = classify(sc)
        except ValueError:
            continue
        checked += 1
        if got.verdict != expected.verdict or (
            expected.verdict == NOT_DENSE and got.upper_bound != expected.upper_bound
        ):
            raise AssertionError(
                "generic and specialized verdicts disagree\n"
                f"scenario: {sc}\n"
                f"generic: {got.verdict} upper={got.upper_bound} witness={got.witness}\n"
                f"specialized: {expected.verdict} upper={expected.upper_bound} "
                f"source={expected.source} notes={expected.notes}"
            )
    assert checked >= 500, f"cross-check grid too small: {checked}"
    _report(6, f"generic comparison matches {checked} specialized verdicts", started)


def test_criterion_7_growth_estimate_convergence():
    started = time.time()
    primes = [p for p in range(7, 102) if is_prime(p)]
    cases = [
        (lambda q: AmbientSpace(q, 1, 3, 4, "hamming"), 1),
        (lambda q: AmbientSpace(q, 1, 3, 3, "rank"), 2),
        (lambda q: AmbientSpace(q, 1, 2, 4, "sumrank", t=2), 3),
    ]
    for mk_space, r in cases:
        deviations = []
        for q in primes:
            space = mk_space(q)
            prof = volume_growth(space, r, "q")
            approx = prof.coefficient * Fraction(q) ** int(prof.exp_intercept)
            dev = abs(Fraction(ball_volume(space, r)) / approx - 1)
            assert dev <= Fraction(32, q), (space, q, dev)
            deviations.append(dev)
        assert all(a >= b for a, b in zip(deviations, deviations[1:]))
    _report(7, "volume ratios inside the 1 +/- 32/q envelope, monotone", started)


_MC_SCENARIOS = [
    (AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 2, dim=1)),
    (AmbientSpace(2, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=2)),
    (AmbientSpace(2, 1, 2, 2, "rank"), CodeFamilySpec(1, 2, dim=2)),
    (AmbientSpace(2, 1, 2, 4, "sumrank", t=2), CodeFamilySpec(1, 2, dim=1)),
    (AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=3)),
]


def test_criterion_8_monte_carlo_soundness():
    started = time.time()
    for space, spec in _MC_SCENARIOS:
        exact = exact_density(space, spec)
        report = estimate_density(space, spec, trials=10_000, seed=DEFAULT_SEED)
        assert report.ci_lower <= exact <= report.ci_upper, (space, spec, exact, report)
    elapsed = time.time() - started
    assert elapsed < 180, f"fixed-seed suite exceeded 3 minutes: {elapsed:.0f}s"
    _report(8, "0.99 intervals contain exact densities (fixed seed)", started)


def test_criterion_9_stream_determinism(monkeypatch):
    from codedensity import harness

    started = time.time()
    space = AmbientSpace(2, 1, 2, 2, "hamming")
    spec = CodeFamilySpec(1, 2, dim=1)
    # spy on the scorer: the batch sizes show that each partition is real
    sizes: list[int] = []
    score = harness._min_weights
    monkeypatch.setattr(
        harness, "_min_weights", lambda bases, *rest: sizes.append(len(bases)) or score(bases, *rest)
    )
    blobs, batches = set(), set()
    for streams in (1, 3, 4, 7):  # 1000 trials: 3 and 7 do not divide it
        sizes.clear()
        report = estimate_density(space, spec, trials=1000, seed=DEFAULT_SEED, worker_streams=streams)
        blobs.add(json.dumps(report.payload(), sort_keys=True, indent=2))
        batches.add(tuple(sizes))
    assert len(blobs) == 1
    assert len(batches) == 4
    _report(9, "worker streams cannot change a report", started)
