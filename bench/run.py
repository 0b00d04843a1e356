"""The codedensity benchmark.

    python3 bench/run.py [--workload exhaustive|monte-carlo|closed-form|all]
                         [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the root of a checkout.  Each timed repeat is a cold run of the
workload in a fresh interpreter (``child.py``) that imports the library from
this checkout's ``src``; repeats run one at a time until ``--seconds`` is
used up.  Every unit call's output is compared with its reference digest.

With ``--trace 0`` the result gives the end-to-end metrics: ``setup_s``
(median time from a fresh interpreter until ``import codedensity``
returns), ``wall_ref_s`` (median over the cold runs of a run's wall time
divided by its slowdown), ``call_p90_ref_s`` (90th percentile of unit-call
latency, each divided by its run's slowdown, pooled over the repeats) and
``peak_rss_mb`` (median ``ru_maxrss`` of a run).  A run's slowdown is how
much slower than the reference speed ``speed.py``'s probe loop ran during
it, so the two times read as seconds at the reference speed; the raw
``wall_s`` and ``call_p90_s`` are printed and recorded beside them.  With
``--trace 1`` cold runs alternate between untraced and traced, and the
result gives the per-layer metrics of the traced runs plus
``trace.overhead_frac``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed`` counts unit calls that raised or whose
output digest differs from the reference.  The exit code is 0 only when
every output matched and every trace count cross-check held.  A full record
of each invocation, machine included, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
WORKLOADS = ("exhaustive", "monte-carlo", "closed-form")

SETUP_PROBES = 6  # import-only starts per invocation, on top of one per cold run
QUICK_CALLS = 3  # unit calls per cold run with --quick
DEADLINE_S = 170  # each workload's measurement ends well inside 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CODE_DENSITY_GUARD", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--spawned", repr(spawned), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cold run exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"cold run failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - spawned
    if "library" in out and not Path(out["library"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"cold run imported {out['library']}, not the library under {SRC}")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def measure(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    """Cold runs of one workload until the time is used up."""
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    if quick:
        base += ["--limit", str(QUICK_CALLS)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = [run_child(["--setup-only"], remaining())["setup_s"] for _ in range(SETUP_PROBES)]
    deadline = time.monotonic() + seconds
    modes = ["0", "1"] if trace else ["0"]
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    last = {m: 0.0 for m in modes}
    ran = True
    while ran:
        ran = False
        for mode in modes:
            if runs[mode] and min(deadline - time.monotonic(), remaining()) < last[mode]:
                continue
            out = run_child(base + ["--trace", mode], remaining())
            last[mode] = out["elapsed_s"]
            runs[mode].append(out)
            setups.append(out["setup_s"])
            ran = True
    return {"setups": setups, "runs": runs}


def summarize(workload: str, measured: dict, trace: bool) -> dict:
    plain = measured["runs"]["0"]
    all_runs = [r for runs in measured["runs"].values() for r in runs]
    walls = [r["wall_s"] for r in plain]
    slowdowns = [r["slowdown"] for r in plain]
    ref_walls = [w / f for w, f in zip(walls, slowdowns)]
    latencies = [x for r in plain for x in r["latencies"]]
    ref_latencies = [x / r["slowdown"] for r in plain for x in r["latencies"]]
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    checks = [c for r in all_runs for c in r.get("checks", [])]
    summary = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in all_runs for f in r["failures"]][:10],
        "checks": checks,
        "setup_s": {"median": statistics.median(measured["setups"]), "n": len(measured["setups"])},
        "wall_s": dict(zip(("q1", "median", "q3"), quartiles(walls)), n=len(walls), samples=walls),
        "slowdown": dict(zip(("q1", "median", "q3"), quartiles(slowdowns)), n=len(walls), samples=slowdowns),
        "wall_ref_s": dict(zip(("q1", "median", "q3"), quartiles(ref_walls)), n=len(walls), samples=ref_walls),
        "call_p90_s": {"value": p90(latencies), "n": len(latencies)},
        "call_p90_ref_s": {"value": p90(ref_latencies), "n": len(latencies)},
        "peak_rss_mb": {"median": statistics.median(r["peak_rss_mb"] for r in plain), "n": len(plain)},
        "digest_s": statistics.median(r["digest_s"] for r in plain),
        "runs": [{k: r[k] for k in ("wall_s", "slowdown", "latencies", "stretches")} for r in plain],
        "numpy": plain[0]["numpy"],
        "library": plain[0]["library"],
    }
    if trace:
        traced = measured["runs"]["1"]
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if layer_unit(name) == "count":
                # counts are exact and must repeat run after run
                checks.append({"name": f"{name} repeats", "expected": values[0], "counted": values, "ok": len(set(values)) == 1})
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        traced_wall = statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / summary["wall_ref_s"]["median"] - 1
        summary["layers"] = layers
        summary["traced_wall_ref_s"] = {"median": traced_wall, "n": len(traced)}
    return summary


def end_to_end(summary: dict) -> dict:
    return {
        "setup_s": (summary["setup_s"]["median"], "s"),
        "wall_ref_s": (summary["wall_ref_s"]["median"], "s"),
        "call_p90_ref_s": (summary["call_p90_ref_s"]["value"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"]["median"], "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".yielded")):
        return "count"
    return "ratio"


def print_summary(summary: dict, trace: bool) -> None:
    w = summary["workload"]
    s, wall, p = summary["setup_s"], summary["wall_s"], summary["call_p90_s"]
    frac = summary["failed"] / summary["attempted"]
    print(f"{w} setup_s {s['median']:.4f} s (median of {s['n']} starts)")
    print(f"{w} wall_s {wall['median']:.4f} s (q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}, n={wall['n']} cold runs)")
    print(f"{w} call_p90_s {p['value']:.6f} s (over {p['n']} unit calls)")
    slow, ref = summary["slowdown"], summary["wall_ref_s"]
    print(f"{w} slowdown {slow['median']:.4f} (q1 {slow['q1']:.4f}, q3 {slow['q3']:.4f}; host speed probe, 1 = reference)")
    print(f"{w} wall_ref_s {ref['median']:.4f} s (q1 {ref['q1']:.4f}, q3 {ref['q3']:.4f}, wall_s over each run's slowdown)")
    print(f"{w} call_p90_ref_s {summary['call_p90_ref_s']['value']:.6f} s (latencies over their run's slowdown)")
    print(f"{w} peak_rss_mb {summary['peak_rss_mb']['median']:.1f} MB (median of {summary['peak_rss_mb']['n']} runs)")
    print(f"{w} failed_frac {frac:.4f} ({summary['failed']} of {summary['attempted']} unit calls)")
    for f in summary["failures"]:
        print(f"{w} FAILED {f['key']}: {f['error']}")
    for c in summary["checks"]:
        if not c["ok"]:
            print(f"{w} CHECK FAILED {c['name']}: expected {c['expected']}, counted {c['counted']}")
    if trace:
        for name, value in summary["layers"].items():
            print(f"{w} {name} {value:.6g} {layer_unit(name)}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="codedensity benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help=f"run only {QUICK_CALLS} unit calls per cold run")
    args = p.parse_args(argv)
    if not (SRC / "codedensity" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"benchmark needs the library source under {SRC} and {REFERENCE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    summaries = []
    try:
        for name in names:
            measured = measure(name, args.seed, args.seconds, trace, args.quick)
            summaries.append(summarize(name, measured, trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for summary in summaries:
        print_summary(summary, trace)
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        if trace:
            pairs = {k: (v, layer_unit(k)) for k, v in summary["layers"].items()}
        else:
            pairs = end_to_end(summary)
        for k, (value, unit) in pairs.items():
            metrics[prefix + k] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    checks_ok = all(c["ok"] for s in summaries for c in s["checks"])
    correct = failed == 0 and checks_ok

    RESULTS.mkdir(exist_ok=True)
    record = {
        "machine": machine(args.seed, summaries[0]["numpy"]),
        "args": vars(args),
        "correct": correct,
        "summaries": summaries,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
