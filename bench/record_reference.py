"""Record the reference digest of every unit call in every workload pool.

    PYTHONPATH=src python3 bench/record_reference.py [workload ...]

Writes ``bench/reference.json``.  The digests pin the library's exact
outputs at the commit that recorded them; a later change that alters any
histogram, bracket, volume, report payload or verdict fails the benchmark.
Re-recording is only right when an output is meant to change, and the
change that does it must say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import digest
import workloads
from codedensity.harness import Verdict

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _failed_verdicts(out) -> list:
    if isinstance(out, list):
        return [v for v in out if isinstance(v, Verdict) and not v.passed]
    return []


def record(workload: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for call in workloads.pool(workload):
        if call.key in out:
            raise ValueError(f"duplicate unit-call key {call.key!r}")
        value = call.run()
        bad = _failed_verdicts(value)
        if bad:
            raise AssertionError(f"{call.key}: verification failed: {bad[:3]}")
        out[call.key] = digest.digest(value)
        print(f"{workload}: {len(out)} {call.key}", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        reference[name] = record(name)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
