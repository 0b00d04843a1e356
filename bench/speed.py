"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of the same Python code swings by half or more
over tens of seconds, as other tenants come and go.  A cold run therefore
probes the host's speed as it goes: after every stretch of unit calls it runs
passes of a fixed reference loop for ``DUTY`` times the stretch's length.
The mean time of one pass over ``REFERENCE_PASS_S`` is the run's slowdown,
and ``run.py`` divides the run's times by it, so they read as seconds at the
reference speed.  The passes are timed apart from the unit calls and never
count toward them.

The loop uses only the standard library, never ``codedensity``, so a change
to the library cannot move it.  It mixes what the workloads spend their time
on: interpreter loops over small integers with dict and tuple traffic,
big-integer products and quotients, ``Fraction`` sums, and running sums of
20 KB integers scaled by small ratios, as in binomial tail sums.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

DUTY = 0.05  # probe time per second of unit calls
PROBE_EVERY_S = 0.2  # shortest stretch of unit calls between two probes
# Mean pass time on the 2-core Intel Xeon host the benchmark was tuned on
# (Python 3.11).  It only fixes the scale of the normalised times.
REFERENCE_PASS_S = 0.016


# A 20 KB integer, the size of the binomial tail terms Clopper-Pearson sums.
_WIDE = 3**100_000


def _pass() -> int:
    acc, table = 1, {}
    for i in range(6000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = (acc & 255, i & 7)
        table[key] = table.get(key, 0) + 1
    big = 1
    for i in range(1, 150):
        big = big * (2**127 - i) + acc
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i * i + 1)
    num = den = 1
    for i in range(24):
        num *= 1009 ** (4 * (100 - i)) - 1
        den *= 1009 ** (4 * (i + 1)) - 1
    term, tail = _WIDE, 0
    for j in range(60):
        term = term * (10000 - j) // (j + 77778)
        tail += term
    return len(table) + big.bit_length() + total.denominator.bit_length() + (num // den).bit_length() + tail.bit_length()


class Speedometer:
    """Probe passes run so far: their count and total time."""

    def __init__(self) -> None:
        _pass()  # the first pass in a fresh interpreter warms it up; not counted
        self.passes = 0
        self.probe_s = 0.0

    def probe(self, budget_s: float) -> tuple[int, float]:
        """Run passes for ``budget_s`` seconds, at least one; return how many
        passes ran and how long they took."""
        t0 = now = perf_counter()
        passes = 0
        while True:
            _pass()
            passes += 1
            now = perf_counter()
            if now - t0 >= budget_s:
                break
        self.passes += passes
        self.probe_s += now - t0
        return passes, now - t0

    def slowdown(self) -> float:
        """Mean pass time over the reference pass time."""
        return self.probe_s / self.passes / REFERENCE_PASS_S
