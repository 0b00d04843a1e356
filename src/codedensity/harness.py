"""Empirical verification: exhaustive densities on tiny spaces, seeded Monte
Carlo estimation, and the bracket/volume/reduction verification suites.

Monte Carlo draws are keyed per trial: trial i uses a Philox stream with key
(seed, i), so results cannot depend on how trials are batched and a report
is reproducible from (seed, trials, scenario) alone.  Linear and nonlinear
trials run through one loop that scores them in batches.  The generators are
pooled per thread and the pool is kept across estimates: each generator is
built once and re-keyed before every trial it serves by resetting its Philox
state to that of a fresh ``Philox(key=(seed, i))``, so a slot carries no
state from one trial or estimate to the next and every draw is bit-identical
to one from a generator built for the trial.  First draws are computed by
``_philox_bounded``, which evaluates the same Philox streams and numpy's
bounded-integer method over a whole window of batches at once: whole
consecutive batches, holding at most _CHUNK_WORDS values in all.  Draws it
cannot follow, and every redraw, come from the trial's generator.  A linear
trial whose evaluated first matrix scores 0 makes one call on its
still-fresh generator for two matrices: the replay of the first, checked
against it, and its second attempt.  numpy draws each bounded value from the
bit generator's own uint32 stream, so that call gives exactly what two calls
of one matrix each would.  Each redraw round scores the batch's redrawn rows
in place.
Confidence intervals are exact Clopper-Pearson bounds on a dyadic rational
grid of width 2^-21 (< 10^-6), rounded outward so coverage is never
understated.  There is one endpoint search: the lower endpoint is the last
grid point where the upper tail P(X >= x) is at most alpha/2, and the upper
endpoint is one minus the lower endpoint of n - x successes, since
P(X <= x | p) = P(n - X >= n - x | 1 - p) and the grid is symmetric about
1/2.  So every comparison is of an upper tail with alpha/2 < 1/2, which
keeps its relative precision at levels close to 1.  A float64 tail, summed
over a window around its largest term, guesses the endpoint, and exact
comparisons at the guess and its neighbour confirm it, galloping and
bisecting outward when either check fails, so the guess never changes the
result.  Each comparison first encloses the tail in fixed-point integers
with directed rounding and falls back to the exact integer sum only when
alpha/2 lies inside the enclosure.  The enclosure's start term
C(n, x) a^x b^(n-x), an integer of about 21n bits, is never formed: it is
held between a lower and an upper bound with mantissas of 2*_TAIL_BITS
bits, so 10^5 or 10^6 trials need no quadratic-time division of integers
that size.

A word has one index, the integer whose j-th base-q^m digit is the word's
j-th coordinate, and ``metrics._flat_weight_table`` is indexed by it.
Exhaustive linear histograms and linear Monte Carlo trials share one exact
scorer of two steps.  The per-row step expands each row into its ell
F_p-generators kappa_u * row; the span step scores each code by one word
per projective point, the combinations of its rows whose last nonzero
middle-field coefficient is 1, since a nonzero middle-field multiple of a
word has the same weight in all three metrics.  A Monte Carlo batch's drawn
matrices are one numpy array, and every row of it is expanded.  An
exhaustive chunk of consecutive RREF bases holds few distinct rows, since
the bases of a pivot profile are a Cartesian product of per-row choices:
a per-chunk row table numbers them, each basis becomes k row numbers, and
only the table's rows are expanded, once each, before the codes gather
their generators by number.  Words are expanded in the packed middle-field
encoding and their weights read from the table at that encoding's index.
It indexes other words than the word index does, but per coordinate the
two differ by one invertible F_p-linear map of its m base-p digits, which
keeps every weight, so the table serves both encodings as it is.  A
linear trial's drawn matrix goes to the scorer as drawn, with no row
reduction, since a code's minimum weight depends only on its row space.  A
draw of rank below k has a normalized combination of its rows equal to the
zero word and scores 0, which no code of dimension k does, so such draws
are found by the scorer and redrawn from the trial's own stream, as
``fields.sample_subspace`` redraws them.  The reduction check compares two
weight tables entry by entry.
Nonlinear codes drawn by the Monte Carlo trials have one scorer,
``_subset_min_weights``: it splits word indices with
``metrics._word_columns`` and weighs the pair differences of a whole batch
of word sets with the table's own kernel, ``metrics._weights``, and builds
no table, so trials run on spaces far beyond any table.
The exhaustive subset histogram counts only the C(N-1, S-1) sets that hold
the zero word: every pair distance is the weight of a difference, so
translation keeps it, and with h0_w such sets at minimum distance w the N
translates of each give h_w = N * h0_w / S, exact because S*h_w = N*h0_w
counts the pairs (set, member) both ways.  A remainder raises
ArithmeticError.  The sets are counted, not scored one by one: {0} | T has
minimum distance >= w exactly when T is an (S-1)-clique of the graph
joining the words of weight >= w at distance >= w, and pair distances are
read from the weight table, a block of rows at a time for S = 3.
The tests check the linear scorer against ``metrics.min_distance``, the
subset count against ``metrics.distance`` and the full C(N, S) walk, the
table against ``metrics.weight`` and the nonlinear trials against
``metrics.min_distance``.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    _hold_table_size,
    _weights,
    _word_columns,
    ball_volume,
    ball_volume_oracle,
)

DEFAULT_SEED = 1729
_CP_BITS = 21  # dyadic grid of width 2^-21 < 10^-6
_TAIL_BITS = 160  # fraction bits of the fixed-point binomial tail enclosure
_START_BITS = 2 * _TAIL_BITS  # mantissa bits of the bounds on the enclosure's start term
_SEED_LIMIT = 1 << 64  # seeds are Philox key words
# Most words the linear-code scorer expands at once: a chunk of B bases of
# dimension k over F_{p^ell} holds B * (p^(k*ell) - 1)/(p^ell - 1) words, one
# per projective point of each code.  A nonlinear Monte Carlo batch holds
# about as many digit cells, S*n*m a trial, a block of rows of the subset
# count's pair distances about as many pairs, and the nonlinear scorer takes
# at most as many pairs of a set at once.
_CHUNK_WORDS = 1 << 13
# Bits set in each byte value: numpy 1.24 has no bitwise_count
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
# Most trials a Monte Carlo batch draws at once, linear or nonlinear, and so
# the most generators a thread's pool holds (about 150 KB); batch slot j
# keeps one Philox generator, re-keyed for the j-th trial of each batch of
# every estimate the thread runs, and a linear trial's redraws continue from
# its slot until the batch is scored.
_TRIAL_BATCH = 256
# each thread's generator pool, kept across estimates
_POOLS = threading.local()


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


# Philox4x64-10 multipliers of counter words 0 and 2, with their 32-bit
# limbs, and the Weyl increments of key words 0 and 1 (Salmon et al., SC
# 2011), stacked on a leading axis
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _philox_bounded(
    seed: int, trial_ids: Sequence[int], bounds: int | np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` values ``trial_generator(seed, i).integers(0,
    bounds)`` gives for each trial i, as a (trials, count) int64 array, and
    a per-trial flag set when numpy would have needed a rejection retry.

    ``bounds`` is one bound in [2, 2^32] or one per position.  numpy draws
    each such value from one uint32 (the low half of each uint64 of the
    Philox stream first) by Lemire's multiply-and-shift, retrying when the
    low 32 bits of the product fall below 2^32 mod bound.  Trial i's stream
    is Philox4x64-10 with key (seed, i) and counters 1, 2, ..., so the first
    draws of a whole window of batches are computed at once; the values of a
    flagged trial are wrong and it must draw from its own generator.  Every
    operand is np.uint64, so numpy's integer promotion rules never apply.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.min() < 2 or bounds.max() > 1 << 32:
        raise ValueError("Philox bounds must lie in [2, 2^32]")
    trials = np.asarray(trial_ids, dtype=np.uint64)
    blocks = -(-count // 8)  # each block is four uint64, eight uint32
    key = np.empty((2, len(trials), 1), dtype=np.uint64)
    key[0], key[1, :, 0] = np.uint64(seed), trials
    # counter words 0 and 2, then 1 and 3, of every block of every trial
    even = np.zeros((2, len(trials), blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    # a round maps (c0, c1, c2, c3) to (hi(M1*c2) ^ c1 ^ k0, lo(M1*c2),
    # hi(M0*c0) ^ c3 ^ k1, lo(M0*c0)), and bumps the key between rounds
    for r in range(10):
        if r:
            key += _PHILOX_W
        # the high words of the 128-bit products M * even, through 32-bit
        # limbs; no partial sum reaches 2^64
        lo, hi = even & _LOW32, even >> _SHIFT32
        mid = _PHILOX_M_LO * hi + (_PHILOX_M_LO * lo >> _SHIFT32)
        carry = _PHILOX_M_HI * lo + (mid & _LOW32)
        high = _PHILOX_M_HI * hi + (mid >> _SHIFT32) + (carry >> _SHIFT32)
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    draws = np.stack([words & _LOW32, words >> _SHIFT32], axis=-1).reshape(len(trials), -1)
    scaled = draws[:, :count] * bounds
    rejected = ((scaled & _LOW32) < np.uint64(1 << 32) % bounds).any(axis=1)
    return (scaled >> _SHIFT32).astype(np.int64), rejected


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exhaustive densities
# ---------------------------------------------------------------------------


def _check_linearity(space: AmbientSpace, ell: int) -> None:
    space.requires_prime_q()
    if space.m % ell:
        raise ValueError(f"linearity {ell} must divide m={space.m}")


def space_tower(space: AmbientSpace, ell: int) -> FieldTower:
    _check_linearity(space, ell)
    return build_tower(space.q, ell, space.m // ell)


def _fp_span(gens: np.ndarray, p: int) -> np.ndarray:
    """Every F_p-combination of G generators, for each of B rows at once.

    Vectors over F_p are packed bit masks of shape (B, G) when p = 2 and
    digit arrays of shape (B, G, D) otherwise.  The combination
    sum_g c_g * gens[:, g] lands at index sum_g c_g * p^g of axis 1.  It is
    built by doubling: XOR for p = 2, digitwise addition mod p otherwise.
    With G = 0 it is the zero vector alone.
    """
    out = np.zeros((gens.shape[0], 1, *gens.shape[2:]), dtype=gens.dtype)
    for g in range(gens.shape[1]):
        gen = gens[:, g : g + 1]
        if p == 2:
            out = np.concatenate((out, out ^ gen), axis=1)
        else:
            out = np.concatenate([(out + c * gen) % p for c in range(p)], axis=1)
    return out


def _row_generators(rows: np.ndarray, tower: FieldTower, unit_mul: np.ndarray) -> np.ndarray:
    """The ell F_p-generators kappa_u * row of each row of an (R, ns) array
    of middle-field vectors, in the packed middle-field encoding: bit masks
    of shape (R, ell) when p = 2, base-p digit arrays of shape
    (R, ell, ns*ell) otherwise.

    ``unit_mul[u, x]`` is the index of kappa_u * x, where kappa_u (index p^u)
    runs over the F_p-basis of the middle field and kappa_0 = 1.
    """
    p, ell = tower.p, tower.ell
    n_rows, ns = rows.shape
    scaled = np.take(unit_mul, rows.T, axis=1)  # (ell, ns, R)
    if p == 2:
        return (scaled << (np.arange(ns) * ell)[:, None]).sum(axis=1).T
    digits = np.arange(tower.subfield_order)[:, None] // p ** np.arange(ell) % p
    return digits.astype(_digit_dtype(p))[scaled].transpose(2, 0, 1, 3).reshape(n_rows, ell, ns * ell)


def _span_min_weights(gens: np.ndarray, p: int, table: np.ndarray) -> np.ndarray:
    """Minimum weight over the nonzero codewords of each of B codes, given
    the ``_row_generators`` of its k rows as a (B, k, ell) or
    (B, k, ell, ns*ell) array.

    Scaling a word by a nonzero middle-field element keeps its weight in
    all three metrics, so each code is scored by one word per projective
    point: the (p^(k*ell) - 1)/(p^ell - 1) combinations whose last nonzero
    coefficient is 1.  Those ending at row r form the coset
    row_r + span(rows < r).  The F_p-span of the (k-1)*ell generators
    kappa_u * row_r, r < k - 1, is built once by ``_fp_span``; its first
    p^(r*ell) entries are span(rows < r), and the next p^(r*ell) are that
    span plus kappa_0 * row_r = row_r, the coset of row r, so only the last
    row's coset is formed.  Rows of rank below k have a normalized
    combination equal to the zero word, so they score 0.  Weights are
    gathered from ``table``.
    """
    n_codes, k, ell = gens.shape[:3]
    gens = gens.reshape(n_codes, k * ell, *gens.shape[3:])
    span = _fp_span(gens[:, : (k - 1) * ell], p)
    lead = gens[:, (k - 1) * ell, None]
    words = [span[:, size : 2 * size] for size in p ** (ell * np.arange(k - 1))]
    words = np.concatenate([*words, span ^ lead if p == 2 else (span + lead) % p], axis=1)
    if p != 2:
        words = words @ p ** np.arange(words.shape[2], dtype=np.int64)
    return table[words].min(axis=1)


def _min_weights(
    bases: np.ndarray, tower: FieldTower, table: np.ndarray, unit_mul: np.ndarray
) -> np.ndarray:
    """Minimum weight over the nonzero codewords of each code spanned by a
    (B, k, ns) stack of middle-field bases: ``_row_generators`` of every
    row, then ``_span_min_weights``.  A stack of rank below k scores 0.
    """
    n_codes, k, ns = bases.shape
    gens = _row_generators(bases.reshape(-1, ns), tower, unit_mul)
    return _span_min_weights(gens.reshape(n_codes, k, *gens.shape[1:]), tower.p, table)


def _index_span(gens: list, p: int, width: int) -> np.ndarray:
    """``_fp_span`` of B rows of G generators given by index: a vector of
    F_p^width is the integer below p^width whose base-p digits are its
    coordinates.  The combinations come back as int64 indices too; for
    p = 2 the indices are spanned by XOR, otherwise through their digits."""
    gens = np.array(gens, dtype=np.int64)
    if p == 2:
        return _fp_span(gens, p)
    digits = (gens[..., None] // p ** np.arange(width) % p).astype(_digit_dtype(p))
    return _fp_span(digits, p) @ p ** np.arange(width)


def _scorer(space: AmbientSpace, tower: FieldTower, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The space's weight table and the unit products ``unit_mul`` that
    ``_min_weights`` and its two steps take, and the most k-row matrices to
    score at once, about _CHUNK_WORDS normalized words.

    The table is indexed by word, and the scorer reads it at the packed
    encoding sum_i vec[i] * p^(ell*i) instead, though the two index
    different words.  Both give each coordinate the same block of m base-p
    digits, and within the block they differ by one invertible F_p-linear
    map, the same for every coordinate.  Being zero, and the F_p-rank of
    the m x n digit matrix, whole or block by block, do not change when
    that map is applied to every column, so entry by entry the table holds
    the weight of the packed vector's word too."""
    table = _flat_weight_table(space)
    p, ell = tower.p, tower.ell
    # x -> kappa_u * x is F_p-linear, so row u of the table is the F_p-span
    # of the ell products kappa_u * kappa_v
    products = [[tower.k_mul(p**u, p**v) for v in range(ell)] for u in range(ell)]
    unit_mul = _index_span(products, p, ell)
    per_chunk = max(1, _CHUNK_WORDS * (p**ell - 1) // (p ** (k * ell) - 1))
    return table, unit_mul, per_chunk


class _RowIds(dict):
    """Numbers the keys it is asked for in first-seen order, from 0."""

    def __missing__(self, row: tuple[int, ...]) -> int:
        self[row] = row_id = len(self)
        return row_id


def _code_min_weights(
    space: AmbientSpace,
    tower: FieldTower,
    k: int,
    bases: Iterable[SubspaceBasis],
) -> Iterator[np.ndarray]:
    """Minimum weights of the k-dimensional codes ``bases`` span, scored in
    chunks of at most _CHUNK_WORDS codewords; bases are consumed lazily,
    one chunk at a time.

    Within a chunk, each distinct row is expanded once.  The bases of a
    pivot profile are a Cartesian product of per-row choices, so a chunk of
    consecutive bases holds few distinct rows, each in many row slots.  A
    per-chunk row table numbers them in first-seen order; each basis becomes
    k row numbers, ``_row_generators`` runs on the table's rows alone, and
    ``_span_min_weights`` takes every basis's generators gathered by number.
    The table is dropped with its chunk."""
    table, unit_mul, per_chunk = _scorer(space, tower, k)
    ns = space.n * tower.s
    bases = iter(bases)
    while True:
        row_ids = _RowIds()
        slots = itertools.chain.from_iterable(map(itemgetter(0), itertools.islice(bases, per_chunk)))
        ids = np.fromiter(map(row_ids.__getitem__, slots), np.intp)
        if not ids.size:
            return
        rows = np.fromiter(itertools.chain.from_iterable(row_ids), np.int64, count=len(row_ids) * ns)
        gens = _row_generators(rows.reshape(-1, ns), tower, unit_mul)
        yield _span_min_weights(gens[ids.reshape(-1, k)], tower.p, table)


@contextmanager
def _generator_pool(size: int) -> Iterator[list[Generator | None]]:
    """This thread's pool of trial generators, grown to at least ``size``
    slots, for one estimate.

    The pool outlives the estimate and keeps the largest batch its thread
    has run, at most _TRIAL_BATCH slots.  A new slot is None until
    ``trial_generator`` builds its generator, and every later use re-keys
    it, so no slot carries state into a trial, even from an estimate that
    raised.  While an estimate holds the pool the thread's slot is empty,
    so an estimate nested in the same thread gets a pool of its own.
    """
    pool, _POOLS.slots = getattr(_POOLS, "slots", []), []
    pool.extend([None] * (size - len(pool)))
    try:
        yield pool
    finally:
        _POOLS.slots = pool


def _trial_successes(
    trials: int,
    seed: int,
    batch: int,
    score_batch: Callable[[range, list[Generator], tuple[np.ndarray, np.ndarray] | None], int],
    first_draws: tuple[int | np.ndarray, int] | None,
) -> int:
    """Successes of trials 0..trials-1, each drawn from its own
    ``trial_generator(seed, i)``.

    The trials are scored in batches of at most ``batch`` trials:
    ``score_batch`` takes the trial numbers of one batch, their generators
    in trial order, and their first draws, and returns how many of its
    trials succeed.  The generators come from the thread's pool, with a slot
    per batch position: slot j is re-keyed for the j-th trial of each batch,
    once the batch before has been scored, and built only if no earlier
    estimate of the thread has used it.

    With ``first_draws`` = (bounds, count), each trial's first ``count``
    draws ``integers(0, bounds)`` come from ``_philox_bounded``, called once
    per window: a run of whole, consecutive batches holding at most
    _CHUNK_WORDS values, or a single batch if one alone holds more.
    ``score_batch`` gets its batch's values and flags as views into the
    window's arrays; without ``first_draws`` it gets None.
    """
    window = batch
    if first_draws is not None:
        window *= max(1, _CHUNK_WORDS // (first_draws[1] * batch))
    successes = 0
    with _generator_pool(min(batch, trials)) as pool:
        for top in range(0, trials, window):
            end = min(top + window, trials)
            draws = None
            if first_draws is not None:
                draws = _philox_bounded(seed, range(top, end), *first_draws)
            for start in range(top, end, batch):
                trial_ids = range(start, min(start + batch, end))
                gens = [trial_generator(seed, i, gen) for i, gen in zip(trial_ids, pool)]
                pool[: len(gens)] = gens
                rows = slice(start - top, trial_ids.stop - top)
                first = None if draws is None else (draws[0][rows], draws[1][rows])
                successes += score_batch(trial_ids, gens, first)
    return successes


def _linear_successes(
    space: AmbientSpace,
    spec: CodeFamilySpec,
    trials: int,
    seed: int,
    guards: Guards,
) -> int:
    """Number of trials whose uniform k-dimensional code has minimum
    distance >= d, scored straight from the drawn matrices.

    Trial i draws k x ns matrices from ``trial_generator(seed, i)`` until one
    has rank k, as :func:`sample_subspace` does, but without a row
    reduction: a rank-deficient draw has F_p-dependent generators, so some
    nonzero combination is the zero word and ``_min_weights`` reads 0, while
    every code of dimension k has minimum weight >= 1.  Trials are scored in
    batches of at most _TRIAL_BATCH.  Their first matrices come from one
    ``_philox_bounded`` call per window of batches, at most _CHUNK_WORDS
    entries unless one batch holds more; a trial it flags draws its first
    matrix from its own generator.  A draw that scores 0 is redrawn from its
    own trial's stream.  A trial whose first matrix came from the evaluator
    draws two matrices in one call on its still-fresh generator: the first
    must equal the evaluated one, checked for the whole batch at once, and
    the second is its second attempt.  The attempts go into the batch's
    block of matrices, and each round scores the rows still at 0 from there;
    only the trials that score 0 again draw once more.  The weight-table
    guard is checked before the tower is built.  The evaluator takes middle
    fields of up to 2^32 elements, far past any weight table that fits in
    memory.
    """
    _check_linearity(space, spec.linearity)
    _hold_table_size(space, guards.enumeration)
    tower = space_tower(space, spec.linearity)
    table, unit_mul, per_chunk = _scorer(space, tower, spec.dim)
    score = lambda bases: _min_weights(bases, tower, table, unit_mul)
    k, ns = spec.dim, space.n * tower.s
    draw = lambda gen: _draw_matrix(gen, k, tower, space.n)

    def score_batch(trial_ids: range, gens: list[Generator], first: tuple[np.ndarray, np.ndarray]) -> int:
        drawn, flagged = first[0].reshape(-1, k, ns), first[1]
        for j in np.flatnonzero(flagged):
            drawn[j] = draw(gens[j])
        weights = score(drawn)
        redraw = np.flatnonzero(weights == 0)
        # an evaluated trial's generator is still fresh: one call gives the
        # replay of its first matrix and its second attempt
        replay = redraw[~flagged[redraw]]
        pairs = np.array([_draw_matrix(gens[j], 2 * k, tower, space.n) for j in replay])
        pairs = pairs.reshape(-1, 2, k, ns)
        if (differ := (pairs[:, 0] != drawn[replay]).any(axis=(1, 2))).any():
            lowest = trial_ids[replay[differ.argmax()]]
            raise RuntimeError(f"Philox evaluator disagrees with numpy on trial {lowest}")
        drawn[replay] = pairs[:, 1]
        for j in redraw[flagged[redraw]]:
            drawn[j] = draw(gens[j])
        while redraw.size:
            weights[redraw] = score(drawn[redraw])
            redraw = redraw[weights[redraw] == 0]
            for j in redraw:
                drawn[j] = draw(gens[j])
        return int(np.count_nonzero(weights >= spec.d))

    batch = min(per_chunk, _TRIAL_BATCH)
    first_draws = (tower.subfield_order, k * ns)
    return _trial_successes(trials, seed, batch, score_batch, first_draws)


def _subset_min_weights(space: AmbientSpace, indices: np.ndarray) -> np.ndarray:
    """Smallest pair weight of each of B sets of S words, given as a (B, S)
    array of word indices: int64, or Python ints in an object array, which
    any number of words fits.

    ``_word_columns`` splits the indices into the coordinates the weight
    kernel takes, residues below q^m for p = 2 and base-p digits otherwise,
    and the pair differences go through ``_weights``: the XOR of the
    residues, or the digitwise difference mod p.  The pair triangle is
    scored in slices of whole rows, the pairs (i, j) with top <= i < stop
    and j > i: at most _CHUNK_WORDS pairs a set, or one row if it holds
    more.  The running minimum is kept, so a set's pairs are never all held
    at once.
    """
    p, n = space.q, space.n
    n_sets, size = indices.shape
    words = _word_columns(space, indices)  # (n, B, S), or (n, B, S, m) for odd p
    # starts[i] pairs lie in the rows above row i
    starts = np.concatenate(([0], np.cumsum(np.arange(size - 1, 0, -1))))
    best = np.full(n_sets, space.diameter, dtype=np.min_scalar_type(space.diameter))
    top = 0
    while top < size - 1:
        stop = max(top + 1, int(np.searchsorted(starts, starts[top] + _CHUNK_WORDS, "right")) - 1)
        first, second = np.triu_indices(stop - top, top + 1, size)
        a, b = words[:, :, first + top], words[:, :, second]
        diffs = a ^ b if p == 2 else (a + (p - b)) % p
        weights = _weights(space, diffs.reshape(n, -1, *diffs.shape[3:]))
        np.minimum(best, weights.reshape(n_sets, -1).min(axis=1), out=best)
        top = stop
    return best


def _nonlinear_successes(space: AmbientSpace, spec: CodeFamilySpec, trials: int, seed: int) -> int:
    """Number of trials whose uniform S-subset of the space has minimum
    distance >= d.

    Trial i draws the sorted word indices of its subset from
    ``trial_generator(seed, i)`` by Floyd's algorithm, as
    :func:`sample_code_subset` does.  On spaces of at most 2^32 words the S
    picks of each trial of a window of batches, at most _CHUNK_WORDS picks
    unless one batch holds more, come from one ``_philox_bounded`` call,
    with bounds space-S+1, ..., space, and Floyd's collision rule runs
    across each batch in S vectorized steps; a trial the evaluator flags,
    and every trial on a larger space, calls ``sample_code_subset`` on its
    own generator.  Past 2^32 words the indices are Python ints, so spaces
    past 2^64 words take the same path.  ``_subset_min_weights`` scores the
    whole batch, and a trial succeeds when its smallest pair weight is >= d.
    A batch holds at most _TRIAL_BATCH trials and about _CHUNK_WORDS digit
    cells, S*n*m per trial.
    """
    tower = space_tower(space, 1)
    n, size, space_size = space.n, spec.size, space.size

    # at S = space_size Floyd's first bound is 1, which numpy meets with no draw
    bounds = np.arange(space_size - size + 1, space_size + 1) if size < space_size <= 1 << 32 else None

    def subsets(gens: list[Generator], first: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
        if first is None:
            return np.array([sample_code_subset(gen, size, tower, n) for gen in gens], dtype=object)
        picks, flagged = first
        chosen = np.empty_like(picks)
        for j, pick in enumerate(picks.T):
            taken = (chosen[:, :j] == pick[:, None]).any(axis=1)
            chosen[:, j] = np.where(taken, bounds[j] - 1, pick)
        chosen.sort(axis=1)
        for t in np.flatnonzero(flagged):
            chosen[t] = sample_code_subset(gens[t], size, tower, n)
        return chosen

    def score_batch(trial_ids: range, gens: list[Generator], first: tuple | None) -> int:
        weights = _subset_min_weights(space, subsets(gens, first))
        return int(np.count_nonzero(weights >= spec.d))

    per_chunk = max(1, _CHUNK_WORDS // (size * n * space.m))
    first_draws = None if bounds is None else (bounds, size)
    batch = min(per_chunk, _TRIAL_BATCH)
    return _trial_successes(trials, seed, batch, score_batch, first_draws)


@lru_cache(maxsize=64)
def linear_distance_histogram(
    space: AmbientSpace, ell: int, k: int, guards: Guards = Guards()
) -> tuple[tuple[int, int], ...]:
    """(min_distance, count) pairs over all dimension-k middle-field-linear
    codes in the space; one enumeration serves every distance target.

    The subspace-count and weight-table guards are checked from the space
    and ell alone, before the tower is built: a large middle field makes the
    tower the costliest step of a job that would be refused anyway.
    """
    if k < 1:
        raise ValueError("minimum distance needs a nonzero code (k >= 1)")
    _check_linearity(space, ell)
    total = qbinom(space.n * (space.m // ell), k, space.q**ell)
    if total > guards.enumeration:
        raise GuardExceeded("linear code enumeration", total, guards.enumeration)
    _hold_table_size(space, guards.enumeration)
    tower = space_tower(space, ell)
    counts = np.zeros(space.diameter + 1, dtype=np.int64)
    bases = enumerate_subspaces(k, tower, space.n, guards)
    for weights in _code_min_weights(space, tower, k, bases):
        counts += np.bincount(weights, minlength=counts.size)
    return tuple((w, int(c)) for w, c in enumerate(counts) if c)


def _pair_levels(space: AmbientSpace, table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """min(d(u, v), wt(u), wt(v)) for every word u of ``rows`` and v of
    ``cols``, as a (len(rows), len(cols)) array: the largest w at which u
    and v are both words of weight >= w, joined in the distance->=w graph.
    It is 0 where u = v.

    d(u, v) = wt(u - v) is read from the word-indexed ``table``.  The index
    of u - v is u ^ v for p = 2, and otherwise the digitwise difference mod
    p, formed one base-p digit at a time: (u // p^i - v // p^i) mod p is
    digit i of u minus digit i of v, mod p.
    """
    p = space.q
    if p == 2:
        diff = rows[:, None] ^ cols
    else:
        diff = np.zeros((rows.size, cols.size), dtype=np.intp)
        for i in range(space.n * space.m):
            place = p**i
            diff += (rows[:, None] // place - cols // place) % p * place
    return np.minimum(table[diff], np.minimum.outer(table[rows], table[cols]))


def _clique_count(adj: np.ndarray, k: int) -> int:
    """Number of k-cliques, k >= 3, of the graph with the symmetric boolean
    adjacency matrix ``adj`` (zero diagonal).

    Triangles are counted on their edges: the common neighbours of u and v
    are the popcount of the AND of their rows, packed eight to a byte, and
    each triangle is met on its three edges.  The edges are taken
    _CHUNK_WORDS at a time.  A larger clique is counted from its lowest
    vertex v, as a (k-1)-clique among the neighbours of v above it.
    """
    if k == 3:
        rows = np.packbits(adj, axis=1)
        first, second = np.nonzero(np.triu(adj, 1))
        common = 0
        for start in range(0, first.size, _CHUNK_WORDS):
            edges = slice(start, start + _CHUNK_WORDS)
            common += int(_POPCOUNT[rows[first[edges]] & rows[second[edges]]].sum())
        return common // 3
    total = 0
    for v in range(adj.shape[0] - k + 1):
        up = np.flatnonzero(adj[v, v + 1 :]) + v + 1
        if up.size >= k - 1:
            total += _clique_count(adj[np.ix_(up, up)], k - 1)
    return total


def _rooted_clique_counts(space: AmbientSpace, size: int, table: np.ndarray) -> list[int]:
    """a_w for w = 0..diameter+1: the number of (S-1)-sets T of nonzero
    words such that {0} | T has minimum distance >= w.

    {0} | T qualifies exactly when every word of T has weight >= w and T is
    a clique of the graph joining u and v when d(u, v) >= w, so a_w counts
    the (S-1)-cliques of that graph on the words of weight >= w; a_0 = a_1
    = C(N-1, S-1) and a_(diameter+1) = 0.  With ``_pair_levels`` that graph
    joins u and v when their level is >= w.  For S = 2 the levels are the
    weights; for S = 3 a_w counts the pairs of level >= w, and the pair
    levels are streamed in blocks of whole rows, about _CHUNK_WORDS pairs
    each, the pairs u < v only.  For S >= 4 the guard keeps the word count
    small, so the levels of all pairs of nonzero words are held as one
    matrix and each a_w, w >= 2, is a clique count.
    """
    words, top = space.size, space.diameter + 1
    if size == 2:
        counts = np.bincount(table[1:], minlength=top)
    elif size == 3:
        counts = np.zeros(top, dtype=np.int64)
        per_block = max(1, _CHUNK_WORDS // words)
        for start in range(1, words, per_block):
            rows = np.arange(start, min(start + per_block, words))
            # column j is word start + 1 + j, above row i's word when j >= i
            levels = np.triu(_pair_levels(space, table, rows, np.arange(start + 1, words)))
            counts += np.bincount(levels.ravel(), minlength=top)
        counts[0] = 0  # the pairs triu masked out; two distinct nonzero words have level >= 1
    if size <= 3:
        return np.cumsum(counts[::-1])[::-1].tolist() + [0]
    nonzero = np.arange(1, words)
    levels = _pair_levels(space, table, nonzero, nonzero)
    weights = table[1:]
    a = [binom(words - 1, size - 1)] * 2
    for w in range(2, top):
        active = np.flatnonzero(weights >= w)
        adj = levels[np.ix_(active, active)] >= w
        a.append(_clique_count(adj, size - 1) if active.size >= size - 1 else 0)
    return a + [0]


@lru_cache(maxsize=64)
def subset_distance_histogram(
    space: AmbientSpace, size: int, guards: Guards = Guards()
) -> tuple[tuple[int, int], ...]:
    """(min_distance, count) pairs over all size-S subsets of the space.

    Only the C(N-1, S-1) sets {0} | T, T an (S-1)-set of nonzero words, are
    counted, and not set by set: ``_rooted_clique_counts`` gives a_w, the
    number of them at minimum distance >= w, as a clique count, and h0_w =
    a_w - a_(w+1) of them are at minimum distance w.  Then h_w =
    N * h0_w / S: the pairs (X, x) with x in X map one-to-one onto the pairs
    (X - x, x), each S-set giving S of them and each set holding 0 met from
    N, and the translate X - x has X's pair distances.  If S does not divide
    N * h0_w the count is wrong, and ArithmeticError is raised.  The guard
    counts the C(N-1, S-1) sets {0} | T.

    A set of more than half the space's words holds two at distance 1: in
    all three metrics the Singleton-type maximum at d = 2 is q^E with
    E <= mn - 1, at most half the space, so such a histogram is known with
    no count: all C(N, S) = N * C(N-1, S-1) / S sets are at distance 1.

    C(N-1, S-1) >= 2^min(S-1, N-S), so the guard refuses a count from that
    bound first, before C(N-1, S-1) itself is computed, which for N = 2^21
    and S near N/2 takes most of a minute.  The refusal reports 2^j, j the
    guard's bit length: the smallest power of two past the guard, and small
    to build however large S is.  S > N words hold no set, and raise
    ValueError.
    """
    if size < 2:
        raise ValueError("minimum distance needs at least two codewords (S >= 2)")
    if size > space.size:
        raise ValueError(f"S={size} exceeds the {space.size} words of the space")
    space.requires_prime_q()
    bits = guards.enumeration.bit_length()
    if min(size - 1, space.size - size) >= bits:
        raise GuardExceeded("subset code enumeration", 1 << bits, guards.enumeration, exact=False)
    rooted = binom(space.size - 1, size - 1)
    if rooted > guards.enumeration:
        raise GuardExceeded("subset code enumeration", rooted, guards.enumeration)
    if 2 * size > space.size:
        return ((1, space.size * rooted // size),)
    # N - 1 <= C(N-1, S-1) for 1 <= S - 1 <= N - 2, so the guard on the
    # count already holds the table to at most one entry past it
    a = _rooted_clique_counts(space, size, _flat_weight_table(space))
    hist = []
    for w in range(1, space.diameter + 1):
        rooted_at_w = a[w] - a[w + 1]
        count, rem = divmod(space.size * rooted_at_w, size)
        if rem:
            raise ArithmeticError(f"{size} does not divide {space.size} * {rooted_at_w} sets at distance {w}")
        if count:
            hist.append((w, count))
    return tuple(hist)


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


def _mul_bound(u: tuple[int, int], v: tuple[int, int], up: bool) -> tuple[int, int]:
    """The product of u = (m, e) and v, each meaning m * 2^e, with its
    mantissa cut to at most _START_BITS bits, rounded down or up."""
    m, e = u[0] * v[0], u[1] + v[1]
    s = m.bit_length() - _START_BITS
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def _pow_bound(base: int, k: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2^e <= base^k, or >= it when ``up``: powering by
    squaring, every product rounded the same way.  Exact for powers of two."""
    acc, sq = (1, 0), _mul_bound((base, 0), (1, 0), up)
    while k:
        if k & 1:
            acc = _mul_bound(acc, sq, up)
        k >>= 1
        if k:
            sq = _mul_bound(sq, sq, up)
    return acc


def _falling_bounds(top: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lower and upper (m, e) bounds on top * (top - 1) * ... * (top - k + 1),
    multiplied exactly 32 factors at a time."""
    lo = hi = (1, 0)
    for j in range(top - k + 1, top + 1, 32):
        chunk = (math.prod(range(j, min(j + 32, top + 1))), 0)
        lo, hi = _mul_bound(lo, chunk, False), _mul_bound(hi, chunk, True)
    return lo, hi


def _scaled_quotient(num: int, den: int, shift: int, up: bool) -> int:
    """floor(num * 2^shift / den), or its ceiling when ``up``."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    q, r = divmod(num, den)
    return q + (up and r != 0)


def _binom_bounds(n: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lower and upper (m, e) bounds on C(n, k) = n!/(n-k)! / k!."""
    num, fact = _falling_bounds(n, k), _falling_bounds(k, k)
    bounds = []
    for up in (False, True):
        (nm, ne), (fm, fe) = num[up], fact[not up]
        s = _START_BITS + fm.bit_length()
        bounds.append(_mul_bound((_scaled_quotient(nm, fm, s, up), ne - fe - s), (1, 0), up))
    return bounds[0], bounds[1]


def _tail_cmp(n: int, x: int, g: int, t: Fraction, binom: tuple) -> int:
    """Exact sign of P(X >= x) - t for X ~ Bin(n, g/2^_CP_BITS), with
    1 <= x <= n and 0 < g < 2^_CP_BITS; ``binom`` is ``_binom_bounds(n, x)``
    or ``_binom_bounds(n, n - x)``, bounds on the same C(n, x).

    With a = g, b = 2^_CP_BITS - g and T_j = P(X = j), the tail exceeds t iff
    sum_{j >= x} T_j/T_x exceeds theta = t (a+b)^n / start, where
    start = C(n, x) a^x b^(n-x) and (a+b)^n is a shift by _CP_BITS*n bits.
    start is never formed: it is bounded by mantissas of at most _START_BITS
    bits rounded down or up.  That gives theta_lo and theta_hi, the ceiling
    of a lower bound and the floor of an upper bound on theta on the
    2^-_TAIL_BITS scale; an integer is below theta_lo only if it is below
    theta, and above theta_hi only if it is above.  The ratios T_j/T_x
    follow the term-ratio recurrence on that scale, rounded down for the
    lower sum and up for the upper one, so both sums enclose the exact one.
    The exact integer sum runs only when t lies inside the enclosure.
    """
    b = (1 << _CP_BITS) - g
    start_lo, start_hi = (
        _mul_bound(_mul_bound(binom[up], _pow_bound(g, x, up), up), _pow_bound(b, n - x, up), up)
        for up in (False, True)
    )
    shift = _CP_BITS * n + _TAIL_BITS
    theta_lo = _scaled_quotient(t.numerator, t.denominator * start_hi[0], shift - start_hi[1], True)
    theta_hi = _scaled_quotient(t.numerator, t.denominator * start_lo[0], shift - start_lo[1], False)
    term_lo = term_hi = sum_lo = sum_hi = 1 << _TAIL_BITS
    for j in range(x, n):
        if sum_lo > theta_hi:
            return 1
        num_r = (n - j) * g
        den_r = (j + 1) * b
        if num_r < den_r:
            # terms now decay geometrically with ratio num_r/den_r, so the
            # remaining mass is below term * num_r / (den_r - num_r)
            if sum_hi + _ceil_div(term_hi * num_r, den_r - num_r) < theta_lo:
                return -1
            if term_lo == 0:
                return _exact_tail_cmp(n, x, g, t)  # the lower sum has stopped growing
        term_lo = term_lo * num_r // den_r
        term_hi = _ceil_div(term_hi * num_r, den_r)
        sum_lo += term_lo
        sum_hi += term_hi
    if sum_lo > theta_hi:
        return 1
    if sum_hi < theta_lo:
        return -1
    return _exact_tail_cmp(n, x, g, t)


def _exact_tail_cmp(n: int, x: int, g: int, t: Fraction) -> int:
    """``_tail_cmp`` decided exactly: the terms
    T_j * 2^(_CP_BITS*n) = C(n, j) a^j b^(n-j) follow the same term-ratio
    recurrence in integers, where every division is exact."""
    b = (1 << _CP_BITS) - g
    term = total = math.comb(n, x) * g**x * b ** (n - x)
    for j in range(x, n):
        term = term * (n - j) * g // ((j + 1) * b)
        total += term
    return _cmp(total * t.denominator, t.numerator << (_CP_BITS * n))


def _log_tail(n: int, x: int, p: float, log_fact: np.ndarray) -> float:
    """log P(X >= x | p) in float64, X ~ Bin(n, p), 0 < p < 1, x <= n;
    ``log_fact[i]`` is log i!.

    Only a window of outcomes is summed: the mode plus and minus 16 + 12
    standard deviations, clamped to [x, n].  The terms are log-concave in
    j, so every term past a window edge is smaller than the edge term, and
    an edge term is below the largest by a factor of at most e^-64: about
    e^-72 where the terms are near Gaussian, while the 16 extra steps cover
    small means, where they fall like a Poisson tail (the largest factor on
    a grid of n <= 10^6 and p from 2^-21 to 1 - 2^-21 is e^-65.6).  So for
    n < 2^32 the terms left out sum to less than 2^-60 of the largest,
    which a float64 sum cannot resolve.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    centre = min(max(math.floor((n + 1) * p), x), n)
    width = 16 + math.ceil(12 * math.sqrt(n * p * (1 - p)))
    j = np.arange(max(x, centre - width), min(n, centre + width) + 1)
    terms = log_fact[n] - log_fact[j] - log_fact[n - j] + j * log_p + (n - j) * log_q
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


def _lower_endpoint(n: int, x: int, half: Fraction, binom: tuple, log_fact: np.ndarray) -> Fraction:
    """The largest grid point g/2^_CP_BITS with P(X >= x | g/2^_CP_BITS)
    <= alpha/2 = ``half``, X ~ Bin(n, p): the tail increases in p, so that
    is the last point of the grid where the comparison holds."""
    if x == 0:
        return Fraction(0)
    den = 1 << _CP_BITS
    log_half = math.log(half.numerator) - math.log(half.denominator)
    guess = _bisect(lambda g: _log_tail(n, x, g / den, log_fact) <= log_half, 0, den)
    holds = lambda g: g == 0 or _tail_cmp(n, x, g, half, binom) <= 0  # the tail is 0 at g = 0
    return Fraction(_last_true(holds, guess, den), den)


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
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    binom = _binom_bounds(n, min(x, n - x))  # C(n, x) = C(n, n - x) serves both endpoints
    # the upper endpoint is the smallest grid point p with P(X <= x | p)
    # <= alpha/2, and P(X <= x | p) = P(n - X >= n - x | 1 - p) on a grid
    # symmetric about 1/2: one minus the lower endpoint of n - x successes
    lower = _lower_endpoint(n, x, half, binom, log_fact)
    upper = 1 - _lower_endpoint(n, n - x, half, binom, log_fact)
    return lower, upper


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    """A seeded Monte Carlo density estimate.

    The draws are keyed per trial, so the report depends on (seed, trials,
    scenario) alone, and the canonical payload used for reproducibility
    comparisons carries the statistical fields and seed only.
    """

    trials: int
    successes: int
    point_estimate: Fraction
    ci_lower: Fraction
    ci_upper: Fraction
    confidence_level: Fraction
    seed: int

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
    guards: Guards = Guards(),
) -> SampleReport:
    """Monte Carlo estimate of the family density from i.i.d. uniform codes.

    The trials are drawn and scored in batches, but the draws of trial i
    are keyed by (seed, i) alone, so how the trials are batched never
    changes the successes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    level = Fraction(level)
    if not 0 < level < 1:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    spec.validate_for(space)
    if spec.linearity == 0:
        successes = _nonlinear_successes(space, spec, trials, seed)
    else:
        successes = _linear_successes(space, spec, trials, seed, guards)
    lower, upper = clopper_pearson(successes, trials, level)
    return SampleReport(
        trials=trials,
        successes=successes,
        point_estimate=Fraction(successes, trials),
        ci_lower=lower,
        ci_upper=upper,
        confidence_level=level,
        seed=seed,
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
    weight tables indexed by word (spaces up to ``ORACLE_SPACE``, prime q)."""
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
            a.requires_prime_q()
            wa, wb = (_flat_weight_table(x) for x in (a, b))
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


def _desk_spaces(q: int, ell: int, s: int, n: int) -> list[AmbientSpace]:
    """F_{q^m}^n under Hamming, rank, and sum-rank for each t >= 2 dividing n."""
    spaces = [AmbientSpace(q, ell, s, n, HAMMING), AmbientSpace(q, ell, s, n, RANK)]
    spaces += [AmbientSpace(q, ell, s, n, SUMRANK, t=t) for t in range(2, n + 1) if n % t == 0]
    return spaces


def _linear_bracket_cases():
    for ell, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for n in (1, 2, 3):
            ns = n * s
            for space in _desk_spaces(2, ell, s, n):
                for k in range(1, ns + 1):
                    if qbinom(ns, k, 2**ell) > 10**5:
                        continue
                    for d in range(1, space.diameter + 2):
                        yield space, CodeFamilySpec(linearity=ell, d=d, dim=k)


def _nonlinear_bracket_cases():
    for q in (2, 3):
        for n in (2, 3):
            for space in _desk_spaces(q, 1, 1, n):
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
