"""One cold run of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per timed repeat.  It imports the
library first, so the time from process start to the end of that import is
the set-up time, then checks that the library's caches are empty, runs the
seeded plan of unit calls, compares every output with its reference digest
and prints one JSON result line.  Between unit calls it probes the host's
speed (``speed.py``); probe time is kept out of every timing.  With
``--trace 1`` it installs the tracer before the first call and adds the
per-layer numbers and the exact count cross-checks to the result.
"""

import time

import codedensity

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from codedensity import fields, harness, metrics  # noqa: E402

import digest  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Caches a cold run must start without: a hit in any of them would time a
# lookup instead of the work.
COLD_CACHES = {
    "harness.linear_distance_histogram": harness.linear_distance_histogram,
    "harness.subset_distance_histogram": harness.subset_distance_histogram,
    "metrics._weight_distribution": metrics._weight_distribution,
    "fields._smallest_irreducible": fields._smallest_irreducible,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--limit", type=int, default=None, help="run only the first N calls of the plan")
    p.add_argument("--setup-only", action="store_true", help="only measure the import")
    return p.parse_args(argv)


def cross_checks(expected: Counter, counted: dict) -> list[dict]:
    return [
        {"name": name, "expected": want, "counted": counted.get(name, 0), "ok": counted.get(name, 0) == want}
        for name, want in sorted(expected.items())
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    result = {"setup_s": READY - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    cold = {name: fn.cache_info().currsize for name, fn in COLD_CACHES.items()}
    if any(cold.values()):
        print(f"caches are not empty at the start of the run: {cold}", file=sys.stderr)
        return 1
    reference = json.loads(REFERENCE.read_text())[args.workload]
    calls = workloads.plan(args.workload, args.seed)[: args.limit]
    expected: Counter = Counter()
    for call in calls:
        expected.update(call.expect)

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()

    meter = speed.Speedometer()
    latencies, failures = [], []
    stretches = []  # (unit calls done, probe passes, probe seconds) at each probe
    digest_s = 0.0
    start = stretch = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        if t0 - stretch >= speed.PROBE_EVERY_S:
            stretches.append((len(latencies), *meter.probe(speed.DUTY * (t0 - stretch))))
            t0 = stretch = time.perf_counter()
        try:
            out = call.run()
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failures.append({"key": call.key, "error": traceback.format_exc(limit=3)})
            continue
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        got = digest.digest(out)
        want = reference.get(call.key)
        if got != want:
            failures.append({"key": call.key, "error": f"digest {got} != reference {want}"})
        digest_s += time.perf_counter() - t1
    end = time.perf_counter()
    wall_s = end - start - meter.probe_s
    stretches.append((len(latencies), *meter.probe(speed.DUTY * (end - stretch))))

    result.update(
        wall_s=wall_s,
        digest_s=digest_s,
        slowdown=meter.slowdown(),
        stretches=stretches,
        latencies=latencies,
        attempted=len(calls),
        failed=len(failures),
        failures=failures[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=numpy.__version__,
        library=codedensity.__file__,
    )
    if tr is not None:
        result["layers"] = tr.metrics()
        result["checks"] = cross_checks(expected, result["layers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
