"""Self-test of the benchmark.

    python3 -m pytest bench/selftest -q

A quick slice of every workload passes the exact-output gate with and
without tracing, the speed probe counts its passes, the trace count
cross-checks hold, a perturbed reference digest is caught, and the command
refuses to run without the library source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def copy_tree(dest: Path, with_source: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "results")
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_slice_passes_the_gate(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        for name in ("setup_s", "wall_s", "call_p90_s", "slowdown", "wall_ref_s", "call_p90_ref_s", "peak_rss_mb", "failed_frac"):
            assert f"{workload} {name} " in proc.stdout


def test_speed_probe_counts_every_pass():
    sys.path.insert(0, str(BENCH))
    try:
        import speed
    finally:
        sys.path.remove(str(BENCH))
    meter = speed.Speedometer()
    meter.probe(0.0)
    assert meter.passes == 1
    meter.probe(0.05)
    assert meter.passes >= 2 and meter.probe_s >= 0.05
    assert meter.slowdown() == meter.probe_s / meter.passes / speed.REFERENCE_PASS_S > 0


def test_trace_counts_cross_check():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    checked = {}
    for workload, limit in (("exhaustive", 40), ("monte-carlo", 3)):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--spawned", repr(time.monotonic()),
             "--workload", workload, "--seed", "3", "--trace", "1", "--limit", str(limit)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        out = last_json(proc.stdout)
        assert out["failed"] == 0
        for check in out["checks"]:
            assert check["ok"], check
            checked[check["name"]] = check["expected"]
    assert checked["fields.enumerate_subspaces.yielded"] > 0
    assert checked["harness.trial_generator.calls"] >= 2000
    assert checked["harness.clopper_pearson.calls"] == 3


def test_perturbed_reference_digest_is_caught(tmp_path):
    copy_tree(tmp_path, with_source=True)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads

        first = workloads.plan("closed-form", 3)[0].key
    finally:
        del sys.path[:2]
    ref_path = tmp_path / "bench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    digest = reference["closed-form"][first]
    reference["closed-form"][first] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    ref_path.write_text(json.dumps(reference))
    proc = run_bench("--workload", "closed-form", "--seed", "3", "--seconds", "1", "--quick", root=tmp_path)
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert result["correct"] is False
    # exactly one of the quick slice's calls fails in every cold run
    assert result["failed"] >= 1
    assert result["attempted"] == 3 * result["failed"]
    assert f"FAILED {first}" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    copy_tree(tmp_path, with_source=False)
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
