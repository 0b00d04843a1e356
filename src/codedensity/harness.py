"""Empirical verification: exhaustive densities on tiny spaces, seeded Monte
Carlo estimation, and the bracket/volume/reduction verification suites.

Monte Carlo draws are keyed per trial: trial i uses a Philox stream with key
(seed, i), so results cannot depend on how trials are partitioned across
workers and a report is reproducible from (seed, trials, scenario) alone.
Linear and nonlinear trials run through one loop that cuts them into
contiguous blocks and scores each block in batches.  The generators are
pooled: each is built once and re-keyed for later trials by resetting its
Philox state to that of a fresh ``Philox(key=(seed, i))``, so every draw is
bit-identical to one from a generator built for the trial.
Confidence intervals are exact Clopper-Pearson bounds on a dyadic rational
grid of width 2^-21 (< 10^-6), rounded outward so coverage is never
understated.  Each endpoint is the last grid point where a monotone binomial
tail comparison holds.  A float64 tail guesses that point, and exact
comparisons at the guess and its neighbour confirm it, galloping and
bisecting outward when either check fails, so the guess never changes the
result.  Each comparison first encloses the tail in fixed-point integers with
directed rounding and falls back to the exact integer sum only when the
threshold lies inside the enclosure.  It sums the side of the distribution
whose threshold is at most 1/2, the tail itself or its complement, so the
enclosure keeps its relative precision at levels close to 1.

Every exhaustive job reads weights from ``metrics._flat_weight_table``.
Exhaustive linear histograms and linear Monte Carlo trials share one exact
scorer: bases are stacked into numpy integer arrays, every codeword of each
code is expanded, and its weight is read from the table.  A linear trial's
drawn matrix goes to the scorer as drawn, with no row reduction, since a
code's minimum weight depends only on its row space.  A draw of rank below k
spans the zero word with a nonzero combination and scores 0, which no code
of dimension k does, so such draws are found by the scorer and redrawn from
the trial's own stream, as ``fields.sample_subspace`` redraws them.  The
subset walk reads each pair distance from the table at the index of the
pair's difference, and the reduction check compares two tables built on one
tower.
The tests check the scorer against ``metrics.min_distance``, the subset walk
against ``metrics.distance`` and the table against ``metrics.weight``.
Nonlinear Monte Carlo trials keep the scalar ``metrics.weight``, because
they run on spaces far beyond any table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.random import Generator, Philox

from .bounds import (
    CodeFamilySpec,
    nonlinear_bracket,
    sublinear_bracket,
)
from .classifier import Scenario, instantiate, ratio_probe
from .combinat import binom, qbinom
from .fields import (
    FieldTower,
    SubspaceBasis,
    _draw_matrix,
    build_tower,
    enumerate_subspaces,
    sample_code_subset,
)
from .guards import ORACLE_SPACE, Guards, GuardExceeded
from .metrics import (
    AmbientSpace,
    HAMMING,
    RANK,
    SUMRANK,
    _digit_dtype,
    _flat_weight_table,
    _fp_span,
    ball_volume,
    ball_volume_oracle,
    subtract,
    weight,
)

DEFAULT_SEED = 1729
_CP_BITS = 21  # dyadic grid of width 2^-21 < 10^-6
_TAIL_BITS = 160  # fraction bits of the fixed-point binomial tail enclosure
_SEED_LIMIT = 1 << 64  # seeds are Philox key words
# Most codeword entries the linear-code scorer expands at once: a chunk of B
# bases of dimension k over F_{p^ell} holds B * p^(k*ell) codewords.
_CHUNK_WORDS = 1 << 13
# Most trials a linear Monte Carlo batch draws at once; batch slot j keeps one
# Philox generator, re-keyed for the j-th trial of each batch, and a trial's
# redraws continue from its slot until the batch is scored.  Nonlinear trials
# run in batches of one.
_TRIAL_BATCH = 256
# Most pair-difference weights one nonlinear Monte Carlo estimate keeps.
_WEIGHT_CACHE_LIMIT = 1 << 16


def trial_generator(seed: int, trial: int, reuse: Generator | None = None) -> Generator:
    """Counter-based stream for one trial, keyed by (seed, trial).

    With no ``reuse``, a fresh ``Generator(Philox(key=[seed, trial]))``, the
    definition of the stream.  Given a Philox ``Generator``, its bit
    generator is reset to exactly the state that fresh one starts in
    (counter 0, key (seed, trial), no buffered block and no buffered uint32)
    and it is returned, which skips the entropy-seeded set-up that
    ``Philox(key=...)`` performs and then discards.
    """
    if reuse is None:
        return Generator(Philox(key=np.array([seed, trial], dtype=np.uint64)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, trial)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exhaustive densities
# ---------------------------------------------------------------------------


def space_tower(space: AmbientSpace, ell: int) -> FieldTower:
    space.requires_prime_q()
    if space.m % ell:
        raise ValueError(f"linearity {ell} must divide m={space.m}")
    return build_tower(space.q, ell, space.m // ell)


def _min_weights(
    bases: np.ndarray, tower: FieldTower, table: np.ndarray, unit_mul: np.ndarray
) -> np.ndarray:
    """Minimum weight over the nonzero codewords of each code spanned by a
    (B, k, ns) stack of middle-field bases.

    ``unit_mul[u, x]`` is the index of kappa_u * x, where kappa_u (index p^u)
    runs over the F_p-basis of the middle field.  The k*ell vectors
    kappa_u * row_r span each code over F_p; all p^(k*ell) of their
    combinations are expanded and their weights gathered from ``table``.
    """
    p, ell = tower.p, tower.ell
    n_codes, k, ns = bases.shape
    scaled = unit_mul[:, bases].transpose(1, 2, 0, 3)  # (B, k, ell, ns)
    if p == 2:
        gens = (scaled << (np.arange(ns) * ell)).sum(axis=-1)
        words = _fp_span(gens.reshape(n_codes, k * ell), p)
    else:
        digits = np.arange(tower.subfield_order)[:, None] // p ** np.arange(ell) % p
        gens = digits.astype(_digit_dtype(p))[scaled].reshape(n_codes, k * ell, ns * ell)
        words = _fp_span(gens, p) @ p ** np.arange(ns * ell, dtype=np.int64)
    return table[words[:, 1:]].min(axis=1)


def _scorer(
    space: AmbientSpace, tower: FieldTower, k: int, guards: Guards
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """``_min_weights`` bound to the space's weight table and the unit
    products, and the most k-row matrices it should score at once
    (_CHUNK_WORDS codewords)."""
    table = _flat_weight_table(space, tower, guards.enumeration)
    units = [tower.p**u for u in range(tower.ell)]
    unit_mul = np.array([[tower.k_mul(c, x) for x in range(tower.subfield_order)] for c in units])
    per_chunk = max(1, _CHUNK_WORDS // tower.p ** (k * tower.ell))
    return (lambda bases: _min_weights(bases, tower, table, unit_mul)), per_chunk


def _code_min_weights(
    space: AmbientSpace,
    tower: FieldTower,
    k: int,
    bases: Iterable[SubspaceBasis],
    guards: Guards = Guards(),
) -> Iterator[np.ndarray]:
    """Minimum weights of the k-dimensional codes ``bases`` span, scored in
    chunks of at most _CHUNK_WORDS codewords; bases are consumed lazily."""
    score, per_chunk = _scorer(space, tower, k, guards)
    ns = space.n * tower.s
    bases = iter(bases)
    while chunk := [basis.rows for basis in itertools.islice(bases, per_chunk)]:
        cells = itertools.chain.from_iterable(itertools.chain.from_iterable(chunk))
        stack = np.fromiter(cells, np.int64, count=len(chunk) * k * ns)
        yield score(stack.reshape(len(chunk), k, ns))


def _trial_successes(
    trials: int,
    seed: int,
    worker_streams: int,
    batch: int,
    score_batch: Callable[[list[Generator]], int],
) -> int:
    """Successes of trials 0..trials-1, each drawn from its own
    ``trial_generator(seed, i)``.

    The trials are cut into ``worker_streams`` contiguous blocks, and each
    block is scored in batches of at most ``batch`` trials: ``score_batch``
    takes the generators of one batch, in trial order, and returns how many
    of its trials succeed.  The generators form one pool with a slot per
    batch position: slot j is built for the j-th trial of the first batch
    and re-keyed for the j-th trial of each later one, once the batch before
    has been scored.
    """
    pool: list[Generator | None] = [None] * min(batch, trials)
    successes = 0
    for block in range(worker_streams):
        stop = (block + 1) * trials // worker_streams
        for start in range(block * trials // worker_streams, stop, batch):
            trial_ids = range(start, min(start + batch, stop))
            gens = [trial_generator(seed, i, gen) for i, gen in zip(trial_ids, pool)]
            pool[: len(gens)] = gens
            successes += score_batch(gens)
    return successes


def _linear_successes(
    space: AmbientSpace,
    spec: CodeFamilySpec,
    trials: int,
    seed: int,
    worker_streams: int,
    guards: Guards,
) -> int:
    """Number of trials whose uniform k-dimensional code has minimum
    distance >= d, scored straight from the drawn matrices.

    Trial i draws k x ns matrices from ``trial_generator(seed, i)`` until one
    has rank k, as :func:`sample_subspace` does, but without a row
    reduction: a rank-deficient draw has F_p-dependent generators, so some
    nonzero combination is the zero word and ``_min_weights`` reads 0, while
    every code of dimension k has minimum weight >= 1.  Draws that score 0
    are redrawn from their own trial's stream.  Trials are scored in batches
    of at most _TRIAL_BATCH.
    """
    tower = space_tower(space, spec.linearity)
    score, per_chunk = _scorer(space, tower, spec.dim, guards)
    draw = lambda gen: _draw_matrix(gen, spec.dim, tower, space.n)

    def score_batch(gens: list[Generator]) -> int:
        weights = score(np.stack([draw(gen) for gen in gens]))
        while (redraw := np.flatnonzero(weights == 0)).size:
            weights[redraw] = score(np.stack([draw(gens[j]) for j in redraw]))
        return int(np.count_nonzero(weights >= spec.d))

    batch = min(per_chunk, _TRIAL_BATCH)
    return _trial_successes(trials, seed, worker_streams, batch, score_batch)


def _nonlinear_successes(
    space: AmbientSpace, spec: CodeFamilySpec, trials: int, seed: int, worker_streams: int
) -> int:
    """Number of trials whose uniform S-subset of the space has minimum
    distance >= d, one trial per batch, with pair distances from the scalar
    ``weight`` of the pair's difference."""
    tower = build_tower(space.q, 1, space.m)
    d = spec.d
    weights_cache: dict[tuple[int, ...], int] = {}

    def succeeds(gen: Generator) -> bool:
        words = sample_code_subset(gen, spec.size, tower, space.n)
        best = None
        for a, b in itertools.combinations(words, 2):
            diff = subtract(space, a, b)
            w = weights_cache.get(diff)
            if w is None:
                w = weight(space, diff)
                if len(weights_cache) < _WEIGHT_CACHE_LIMIT:
                    weights_cache[diff] = w
            if best is None or w < best:
                best = w
                if best < d:
                    break
        return best >= d

    return _trial_successes(trials, seed, worker_streams, 1, lambda gens: succeeds(gens[0]))


@lru_cache(maxsize=64)
def linear_distance_histogram(
    space: AmbientSpace, ell: int, k: int, guards: Guards = Guards()
) -> tuple[tuple[int, int], ...]:
    """(min_distance, count) pairs over all dimension-k middle-field-linear
    codes in the space; one enumeration serves every distance target."""
    if k < 1:
        raise ValueError("minimum distance needs a nonzero code (k >= 1)")
    tower = space_tower(space, ell)
    ns = space.n * tower.s
    total = qbinom(ns, k, tower.subfield_order)
    if total > guards.enumeration:
        raise GuardExceeded("linear code enumeration", total, guards.enumeration)
    counts = np.zeros(space.diameter + 1, dtype=np.int64)
    bases = enumerate_subspaces(k, tower, space.n, guards)
    for weights in _code_min_weights(space, tower, k, bases, guards):
        counts += np.bincount(weights, minlength=counts.size)
    return tuple((w, int(c)) for w, c in enumerate(counts) if c)


@lru_cache(maxsize=64)
def subset_distance_histogram(
    space: AmbientSpace, size: int, guards: Guards = Guards()
) -> tuple[tuple[int, int], ...]:
    """(min_distance, count) pairs over all size-S subsets of the space.

    Words are walked as indices v of ``codeword_from_int(v)``, which are also
    the indices of the linearity-1 weight table, so d(a, b) is the table
    entry at the index of a - b, whose base-q digits are those of a minus
    those of b, mod q.  The distances from a to every word form one row,
    built when the walk first pairs a with a later word and dropped once the
    walk's first word has passed a, so no table of all pairs is ever held.
    """
    if size < 2:
        raise ValueError("minimum distance needs at least two codewords (S >= 2)")
    space.requires_prime_q()
    total_space = space.size
    total = binom(total_space, size)
    if total > guards.enumeration:
        raise GuardExceeded("subset code enumeration", total, guards.enumeration)
    table = _flat_weight_table(space, space_tower(space, 1), guards.enumeration)
    index = np.arange(total_space)
    units = [space.q**i for i in range(space.n * space.m)]
    rows: dict[int, list[int]] = {}
    hist: Counter[int] = Counter()
    for combo in itertools.combinations(range(total_space), size):
        rows.pop(combo[0] - 1, None)  # combinations come in lexicographic order
        best = None
        for a, b in itertools.combinations(combo, 2):
            if a not in rows:
                rows[a] = table[sum((a // u - index // u) % space.q * u for u in units)].tolist()
            dist = rows[a][b]
            if best is None or dist < best:
                best = dist
                if best <= 1:
                    break
        hist[best] += 1
    return tuple(sorted(hist.items()))


def exact_density(
    space: AmbientSpace, spec: CodeFamilySpec, guards: Guards = Guards()
) -> Fraction:
    """Exact fraction of codes in the family with minimum distance >= d."""
    spec.validate_for(space)
    if spec.linearity == 0:
        hist = subset_distance_histogram(space, spec.size, guards)
    else:
        hist = linear_distance_histogram(space, spec.linearity, spec.dim, guards)
    total = sum(c for _, c in hist)
    good = sum(c for dist, c in hist if dist >= spec.d)
    return Fraction(good, total)


# ---------------------------------------------------------------------------
# exact Clopper-Pearson intervals
# ---------------------------------------------------------------------------


def _cmp(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ge_tail_cmp(n: int, x: int, num: int, den: int, t_num: int, t_den: int) -> int:
    """Exact sign of P(X >= x | p = num/den) - t_num/t_den, X ~ Bin(n, p).

    A fixed-point enclosure of the tail decides the sign whenever the
    threshold lies outside it; the exact sum runs only when it lies inside.
    """
    if x <= 0 or num >= den:
        return _cmp(t_den, t_num)  # tail probability is 1
    if x > n or num <= 0:
        return _cmp(0, t_num)  # tail probability is 0
    if 2 * t_num <= t_den:
        side, flip = (n, x, num, den - num, t_num, t_den), 1
    else:
        # sum the complement instead: P(X >= x) = 1 - P(n - X >= n - x + 1),
        # where n - X ~ Bin(n, 1 - p), against the threshold 1 - t < 1/2
        side, flip = (n, n - x + 1, den - num, num, t_den - t_num, t_den), -1
    sign = _enclosed_tail_cmp(*side)
    return flip * (_exact_ge_tail_cmp(*side) if sign is None else sign)


def _enclosed_tail_cmp(n: int, x: int, a: int, b: int, t_num: int, t_den: int) -> int | None:
    """Sign of P(X >= x) - t_num/t_den for X ~ Bin(n, a/(a+b)), a, b >= 1 and
    1 <= x <= n, or None when the enclosure cannot decide it.

    With T_j = P(X = j), the tail exceeds t iff sum_{j >= x} T_j/T_x exceeds
    theta = t / T_x.  T_x is computed exactly once, only to place theta
    between two integers on the 2^-_TAIL_BITS scale.  The ratios T_j/T_x
    follow the term-ratio recurrence on that scale, rounded down for the
    lower sum and up for the upper one, so both sums enclose the exact one.
    """
    if t_num <= 0:
        return 1  # the tail is positive
    start = math.comb(n, x) * a**x * b ** (n - x)  # T_x * (a+b)^n
    theta, rem = divmod((t_num * (a + b) ** n) << _TAIL_BITS, t_den * start)
    theta_up = theta + (rem != 0)
    term_lo = term_hi = sum_lo = sum_hi = 1 << _TAIL_BITS
    for j in range(x, n):
        if sum_lo > theta:
            return 1
        num_r = (n - j) * a
        den_r = (j + 1) * b
        if num_r < den_r:
            # terms now decay geometrically with ratio num_r/den_r, so the
            # remaining mass is below term * num_r / (den_r - num_r)
            if sum_hi + _ceil_div(term_hi * num_r, den_r - num_r) < theta_up:
                return -1
            if term_lo == 0:
                return None  # the lower sum has stopped growing
        term_lo = term_lo * num_r // den_r
        term_hi = _ceil_div(term_hi * num_r, den_r)
        sum_lo += term_lo
        sum_hi += term_hi
    if sum_lo > theta:
        return 1
    if sum_hi < theta_up:
        return -1
    return None


def _exact_ge_tail_cmp(n: int, x: int, a: int, b: int, t_num: int, t_den: int) -> int:
    """``_enclosed_tail_cmp`` decided exactly: the terms
    T_j * (a+b)^n = C(n, j) a^j b^(n-j) follow the same term-ratio
    recurrence in integers, where every division is exact."""
    term = total = math.comb(n, x) * a**x * b ** (n - x)
    for j in range(x, n):
        term = term * (n - j) * a // ((j + 1) * b)
        total += term
    return _cmp(total * t_den, t_num * (a + b) ** n)


def _log_mass(n: int, j: np.ndarray, p: float, log_fact: np.ndarray) -> float:
    """log P(X in j | p) in float64 for an array j of outcomes, X ~ Bin(n, p),
    0 < p < 1; ``log_fact[i]`` is log i!."""
    log_binom = log_fact[n] - log_fact[j] - log_fact[n - j]
    terms = log_binom + j * math.log(p) + (n - j) * math.log1p(-p)
    top = terms.max()
    return top + math.log(np.exp(terms - top).sum())


def _bisect(pred, lo: int, hi: int) -> int:
    """Largest g in [lo, hi) with pred(g), for pred true up to some point
    and false after it, given pred(lo) and not pred(hi)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _last_true(pred, guess: int, end: int) -> int:
    """``_bisect(pred, 0, end)``, starting from a guess of the answer.

    pred(guess) and pred(guess + 1) are checked first; if either fails, the
    bracket gallops outward in doubling steps and is then bisected.  The
    answer is unique for a monotone pred, so the guess changes only how many
    times pred runs, never the result.
    """
    g = min(max(guess, 0), end - 1)
    step = 1
    if pred(g):
        lo, hi = g, g + 1
        while hi < end and pred(hi):
            lo, hi, step = hi, min(hi + step, end), 2 * step
    else:
        lo, hi = g - 1, g
        while lo > 0 and not pred(lo):
            lo, hi, step = max(lo - step, 0), lo, 2 * step
    return _bisect(pred, lo, hi)


def clopper_pearson(successes: int, trials: int, level: Fraction) -> tuple[Fraction, Fraction]:
    """Exact two-sided Clopper-Pearson interval, endpoints rounded outward
    onto the dyadic grid of width 2^-21."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need trials >= 1 and 0 <= successes <= trials")
    level = Fraction(level)
    if not 0 < level < 1:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    n, x = trials, successes
    half = (1 - level) / 2
    comp = 1 - half
    den = 1 << _CP_BITS
    log_fact = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    log_half = math.log(half.numerator) - math.log(half.denominator)
    # the float64 guesses compare a tail with alpha/2, never with 1 - alpha/2,
    # so they keep their relative precision when alpha is tiny
    if x == 0:
        lower = Fraction(0)
    else:
        # P(X >= x | p) is increasing in p; keep the largest grid point where
        # it still does not exceed alpha/2
        upper_tail = np.arange(x, n + 1)
        guess = _bisect(lambda g: _log_mass(n, upper_tail, g / den, log_fact) <= log_half, 0, den)
        holds = lambda g: _ge_tail_cmp(n, x, g, den, half.numerator, half.denominator) <= 0
        lower = Fraction(_last_true(holds, guess, den), den)
    if x == n:
        upper = Fraction(1)
    else:
        # P(X <= x | p) <= alpha/2  <=>  P(X >= x+1 | p) >= 1 - alpha/2; the
        # upper endpoint is the grid point after the last one where it fails
        lower_tail = np.arange(x + 1)
        guess = _bisect(lambda g: _log_mass(n, lower_tail, g / den, log_fact) > log_half, 0, den)
        fails = lambda g: _ge_tail_cmp(n, x + 1, g, den, comp.numerator, comp.denominator) < 0
        upper = Fraction(_last_true(fails, guess, den) + 1, den)
    return lower, upper


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    """A seeded Monte Carlo density estimate.

    ``worker_streams`` records how many contiguous blocks the trials were
    cut into.  The draws are keyed per trial, so the partition changes
    how the trials are batched but not the successes, and the canonical
    payload used for reproducibility comparisons carries the statistical
    fields and seed only.
    """

    trials: int
    successes: int
    point_estimate: Fraction
    ci_lower: Fraction
    ci_upper: Fraction
    confidence_level: Fraction
    seed: int
    worker_streams: int

    def __post_init__(self) -> None:
        if not self.ci_lower <= self.point_estimate <= self.ci_upper:
            raise ValueError("point estimate escaped its confidence interval")

    def payload(self) -> dict:
        return {
            "ci_lower": _rat(self.ci_lower),
            "ci_upper": _rat(self.ci_upper),
            "confidence_level": _rat(self.confidence_level),
            "point_estimate": _rat(self.point_estimate),
            "seed": self.seed,
            "successes": self.successes,
            "trials": self.trials,
        }


def estimate_density(
    space: AmbientSpace,
    spec: CodeFamilySpec,
    trials: int,
    seed: int = DEFAULT_SEED,
    level: Fraction = Fraction(99, 100),
    worker_streams: int = 1,
    guards: Guards = Guards(),
) -> SampleReport:
    """Monte Carlo estimate of the family density from i.i.d. uniform codes.

    The trials are cut into ``worker_streams`` contiguous blocks, and each
    block is drawn and scored in batches of its own.  The draws of trial i
    are keyed by (seed, i) alone, so the partition moves only the batch
    boundaries and never changes the successes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= worker_streams <= trials:
        raise ValueError(f"worker_streams must lie in [1, trials={trials}], got {worker_streams}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    level = Fraction(level)
    if not 0 < level < 1:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    spec.validate_for(space)
    if spec.linearity == 0:
        successes = _nonlinear_successes(space, spec, trials, seed, worker_streams)
    else:
        successes = _linear_successes(space, spec, trials, seed, worker_streams, guards)
    lower, upper = clopper_pearson(successes, trials, level)
    return SampleReport(
        trials=trials,
        successes=successes,
        point_estimate=Fraction(successes, trials),
        ci_lower=lower,
        ci_upper=upper,
        confidence_level=level,
        seed=seed,
        worker_streams=worker_streams,
    )


# ---------------------------------------------------------------------------
# verification verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification check; details make it re-derivable."""

    subject: str
    passed: bool
    details: dict


def verify_bracket(
    space: AmbientSpace, spec: CodeFamilySpec, guards: Guards = Guards()
) -> Verdict:
    """Exact check that the exhaustive density lies inside the bracket."""
    density = exact_density(space, spec, guards)
    if spec.linearity == 0:
        bracket, _ = nonlinear_bracket(space, spec.size, spec.d)
    else:
        bracket, _ = sublinear_bracket(space, spec.dim, spec.linearity, spec.d)
    return Verdict(
        subject="bracket",
        passed=bracket.contains(density),
        details={
            "space": _space_label(space),
            "family": _family_label(spec),
            "density": _rat(density),
            "lower": _rat(bracket.lower),
            "upper": _rat(bracket.upper),
        },
    )


def _space_label(space: AmbientSpace) -> str:
    t = f",t={space.t}" if space.metric == SUMRANK else ""
    return f"{space.metric}(q={space.q},ell={space.ell},s={space.s},n={space.n}{t})"


def _family_label(spec: CodeFamilySpec) -> str:
    if spec.linearity == 0:
        return f"nonlinear(S={spec.size},d={spec.d})"
    return f"linear(ell={spec.linearity},k={spec.dim},d={spec.d})"


def volume_verification(spaces: list[AmbientSpace]) -> list[Verdict]:
    """ball_volume against the brute-force oracle, all radii."""
    out = []
    for space in spaces:
        for r in range(space.diameter + 1):
            closed = ball_volume(space, r)
            counted = ball_volume_oracle(space, r)
            out.append(
                Verdict(
                    subject="volume",
                    passed=closed == counted,
                    details={
                        "space": _space_label(space),
                        "radius": r,
                        "closed_form": closed,
                        "enumerated": counted,
                    },
                )
            )
    return out


def reduction_verification(q: int, ell: int, s: int, n: int) -> list[Verdict]:
    """Sum-rank with t=1 must match rank, and with eta=1 must match Hamming:
    exact ball volumes at every radius, and pointwise weights compared as two
    weight tables built on one tower (spaces up to ``ORACLE_SPACE``)."""
    out = []
    rank_space = AmbientSpace(q, ell, s, n, RANK)
    one_block = AmbientSpace(q, ell, s, n, SUMRANK, t=1)
    ham_space = AmbientSpace(q, ell, s, n, HAMMING)
    unit_blocks = AmbientSpace(q, ell, s, n, SUMRANK, t=n)
    for a, b, name in ((one_block, rank_space, "t=1 vs rank"), (unit_blocks, ham_space, "eta=1 vs hamming")):
        for r in range(max(a.diameter, b.diameter) + 1):
            va, vb = ball_volume(a, r), ball_volume(b, r)
            out.append(
                Verdict(
                    "reduction",
                    va == vb,
                    {"pair": name, "space": _space_label(a), "radius": r, "volumes": (va, vb)},
                )
            )
        if a.size <= ORACLE_SPACE:
            tower = space_tower(a, 1)
            wa, wb = (_flat_weight_table(x, tower, ORACLE_SPACE) for x in (a, b))
            mismatch = int(np.count_nonzero(wa != wb))
            out.append(
                Verdict(
                    "reduction",
                    mismatch == 0,
                    {"pair": name, "space": _space_label(a), "weight_mismatches": mismatch},
                )
            )
    return out


def _criterion_volume_spaces(limit: int) -> list[AmbientSpace]:
    spaces = []
    for q in (2, 3):
        for m in range(1, 5):
            for n in range(1, 5):
                if q ** (m * n) > limit:
                    continue
                spaces.append(AmbientSpace(q, 1, m, n, HAMMING))
                spaces.append(AmbientSpace(q, 1, m, n, RANK))
                for t in (1, 2, 4):
                    if n % t == 0:
                        spaces.append(AmbientSpace(q, 1, m, n, SUMRANK, t=t))
    return spaces


def _linear_bracket_cases():
    for ell, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for n in (1, 2, 3):
            metrics = [AmbientSpace(2, ell, s, n, HAMMING), AmbientSpace(2, ell, s, n, RANK)]
            for t in range(2, n + 1):
                if n % t == 0:
                    metrics.append(AmbientSpace(2, ell, s, n, SUMRANK, t=t))
            ns = n * s
            for space in metrics:
                for k in range(1, ns + 1):
                    if qbinom(ns, k, 2**ell) > 10**5:
                        continue
                    for d in range(1, space.diameter + 2):
                        yield space, CodeFamilySpec(linearity=ell, d=d, dim=k)


def _nonlinear_bracket_cases():
    for q in (2, 3):
        for n in (2, 3):
            metrics = [AmbientSpace(q, 1, 1, n, HAMMING), AmbientSpace(q, 1, 1, n, RANK)]
            for t in range(2, n + 1):
                if n % t == 0:
                    metrics.append(AmbientSpace(q, 1, 1, n, SUMRANK, t=t))
            for space in metrics:
                for size in (2, 3, 4):
                    for d in range(1, space.diameter + 2):
                        yield space, CodeFamilySpec(linearity=0, d=d, size=size)


def bracket_verification(grid: str, guards: Guards = Guards()) -> list[Verdict]:
    out = []
    if grid == "micro":
        cases = [
            (AmbientSpace(2, 1, 1, 2, HAMMING), CodeFamilySpec(0, 2, size=2)),
            (AmbientSpace(2, 1, 1, 3, HAMMING), CodeFamilySpec(0, 2, size=3)),
            (AmbientSpace(2, 1, 2, 2, HAMMING), CodeFamilySpec(1, 2, dim=1)),
            (AmbientSpace(2, 1, 2, 2, RANK), CodeFamilySpec(1, 2, dim=2)),
            (AmbientSpace(2, 1, 2, 2, SUMRANK, t=2), CodeFamilySpec(1, 2, dim=1)),
            (AmbientSpace(3, 1, 1, 2, HAMMING), CodeFamilySpec(0, 2, size=3)),
        ]
    else:
        cases = itertools.chain(_nonlinear_bracket_cases(), _linear_bracket_cases())
    for space, spec in cases:
        out.append(verify_bracket(space, spec, guards))
    return out


def run_verification(grid: str, guards: Guards = Guards()) -> list[Verdict]:
    """The bracket/reduction/volume suites at desk or micro scale."""
    if grid not in ("micro", "desk"):
        raise ValueError(f"unknown grid {grid!r}; expected micro or desk")
    verdicts: list[Verdict] = []
    if grid == "micro":
        spaces = [
            AmbientSpace(2, 1, 2, 2, HAMMING),
            AmbientSpace(2, 1, 2, 2, RANK),
            AmbientSpace(2, 1, 2, 4, SUMRANK, t=2),
            AmbientSpace(3, 1, 2, 2, RANK),
        ]
        verdicts += volume_verification(spaces)
        verdicts += reduction_verification(2, 1, 2, 2)
        verdicts += bracket_verification("micro", guards)
    else:
        verdicts += volume_verification(_criterion_volume_spaces(ORACLE_SPACE))
        for q, m, n in ((2, 1, 2), (2, 2, 2), (2, 1, 4), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
            if q ** (m * n) <= 2**12:
                verdicts += reduction_verification(q, 1, m, n)
        verdicts += bracket_verification("desk", guards)
    return verdicts


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    probe: int
    rho: Fraction
    lower: Fraction
    upper: Fraction


def convergence_experiment(sc: Scenario, probes: list[int]) -> list[ConvergenceRow]:
    """Exact comparison ratio and finite density bracket at each probe value
    of the growing parameter; rows are ready for delimited export."""
    rows = []
    rhos = dict(ratio_probe(sc, probes))
    for value in probes:
        inst = instantiate(sc, value)
        space: AmbientSpace = inst["space"]
        if sc.nonlinear:
            size = inst["size"]
            if isinstance(size, Fraction):
                if size.denominator != 1:
                    raise ValueError("bracket evaluation needs an integer cardinality")
                size = int(size)
            bracket, _ = nonlinear_bracket(space, size, sc.d)
        else:
            bracket, _ = sublinear_bracket(space, inst["k"], inst["ell"], sc.d)
        rows.append(ConvergenceRow(value, rhos[value], bracket.lower, bracket.upper))
    return rows
