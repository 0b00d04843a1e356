"""Desk-scale guard limits and the error types shared by enumeration-heavy ops."""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_GUARD = "CODE_DENSITY_GUARD"


@dataclass(frozen=True)
class Guards:
    """Limits for exhaustive work, adjustable in one place.

    ``enumeration`` caps how many codes/subspaces an exhaustive oracle may
    walk, ``oracle_space`` caps the ambient size for brute-force volume
    counts, ``tower_degree`` caps the extension degree of constructed field
    towers, ``output_bits`` caps a bound on the bits of the integers that the
    formula commands (``qbinom``, ``volume``, ``bound``) would compute.  The
    environment variable ``CODE_DENSITY_GUARD`` overrides the enumeration
    cap only.
    """

    enumeration: int = 10**6
    oracle_space: int = 2**16
    tower_degree: int = 24
    output_bits: int = 2**20

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
