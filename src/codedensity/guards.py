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
    walk, and the size of the weight table a linear job or subset walk
    builds.  The environment variable ``CODE_DENSITY_GUARD`` overrides it.
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
    """An enumeration would exceed a guard; carries the exact offending count."""

    def __init__(self, what: str, count: int, limit: int):
        self.what = what
        self.count = count
        self.limit = limit
        super().__init__(f"{what}: exact count {count} exceeds guard {limit}")


class UnsupportedAsymptotics(Exception):
    """No growth estimate is implemented for the requested (metric, parameter) pair."""
