"""Shared test helpers."""

from __future__ import annotations

from codedensity.fields import Codeword, FieldTower


def codeword_from_int(value: int, tower: FieldTower, n: int) -> Codeword:
    """The word of index ``value``, whose j-th coordinate is the j-th
    base-p^m digit of the index, least significant first.  A word has this
    one index everywhere: in the weight tables, ``metrics._word_columns``,
    the subset count and ``fields.sample_code_subset``."""
    out = []
    for _ in range(n):
        value, r = divmod(value, tower.order)
        out.append(r)
    return tuple(out)
