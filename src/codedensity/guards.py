"""Desk-scale guard limits and the error types shared by enumeration-heavy ops."""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_GUARD = "CODE_DENSITY_GUARD"


# Fixed caps; CODE_DENSITY_GUARD changes none of them.
ORACLE_SPACE = 2**16  # words a brute-force volume count or reduction check may weigh
TOWER_DEGREE = 24  # extension degree m of a constructed field tower
OUTPUT_BITS = 2**20  # bound on the bits a formula command (qbinom, volume, bound) may print


@dataclass(frozen=True)
class Guards:
    """The settable limit for exhaustive work.

    ``enumeration`` caps how many codes/subspaces an exhaustive oracle may
    walk, and the size of the weight table a linear job builds.  A subset
    histogram over N words at cardinality S counts only the C(N-1, S-1)
    sets that hold the zero word, and that is the count held to the guard.
    The environment variable ``CODE_DENSITY_GUARD`` overrides it.
    The fixed caps ``ORACLE_SPACE``, ``TOWER_DEGREE`` and ``OUTPUT_BITS``
    are module constants that no setting changes.
    """

    enumeration: int = 10**6

    @staticmethod
    def from_env() -> "Guards":
        raw = os.environ.get(ENV_GUARD)
        if raw is None:
            return Guards()
        try:
            limit = int(raw)
        except ValueError:
            limit = -1
        if limit < 0:
            raise ValueError(f"{ENV_GUARD} must be a nonnegative integer, got {raw!r}")
        return Guards(enumeration=limit)


class GuardExceeded(Exception):
    """An enumeration would exceed a guard.

    ``count`` is the exact offending count, or with ``exact=False`` a power
    of two that the count is known to reach.  Such a bound stands in for a
    count too costly to compute or to print, and the message writes it as
    2^k.
    """

    def __init__(self, what: str, count: int, limit: int, *, exact: bool = True):
        self.what = what
        self.count = count
        self.limit = limit
        shown = f"exact count {count}" if exact else f"count at least 2^{count.bit_length() - 1}"
        super().__init__(f"{what}: {shown} exceeds guard {limit}")


class UnsupportedAsymptotics(Exception):
    """No growth estimate is implemented for the requested (metric, parameter) pair."""
