"""Canonical digests of unit-call outputs.

Integers are encoded through ``hex()``, never ``str()``: Python refuses
``str()`` on integers above 4300 decimal digits, and the closed-form
workload produces far larger ones.  A ``SampleReport`` is digested through
its ``payload()`` JSON bytes, the reproducibility contract of the library.
Any type this module does not know raises, so a new output type cannot be
hashed by accident through its ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction


def encode(value) -> str:
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return "i" + hex(value)
    if isinstance(value, Fraction):
        return f"f{hex(value.numerator)}/{hex(value.denominator)}"
    if isinstance(value, str):
        return "s" + json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(encode(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted((encode(k), encode(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if hasattr(value, "payload") and dataclasses.is_dataclass(value):
        return "P" + json.dumps(value.payload(), sort_keys=True)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return type(value).__name__ + encode(fields)
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(value) -> str:
    """128-bit hex digest of the canonical encoding."""
    return hashlib.sha256(encode(value).encode()).hexdigest()[:32]
