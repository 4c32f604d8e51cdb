#!/usr/bin/env python3
"""Smoke test of the adacheck benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced, and the traced run,
at minimal input size for one second each, and asserts that

  * the last stdout line has exactly correct/attempted/failed/metrics,
    with every output check passed;
  * every metric BENCHMARK.json names is present, finite and in its
    stated unit (end-to-end metrics untraced, per-layer metrics traced);
  * the context line records nproc, compiler, build type, commit,
    threads, connections, seed and whether the run was traced;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exits non-zero on the first failed assertion.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTEXT_KEYS = {"nproc", "compiler", "build_type", "commit", "threads",
                "connections", "seed", "traced"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(workload, trace, expected):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, (workload, trace, out.stderr[-3000:])
    lines = out.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    assert CONTEXT_KEYS <= set(context), context
    assert context["traced"] == bool(trace) and context["seed"] == 1, context
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (result, out.stderr)
    assert result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, sorted(metrics)
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        assert math.isfinite(got["value"]), (m["name"], got)
    print("ok  %-18s trace=%d  %d metrics, %d operations checked"
          % (workload, trace, len(metrics), result["attempted"]))


def check_bare_directory(workload):
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, workload, 0)
        assert out.returncode != 0, out.stdout
        assert '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without sources the benchmark exits %d and prints no result"
          % out.returncode)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        check_run(workload, 0, bench["end_to_end"])
    check_run(names[0], 1, bench["per_layer"])
    check_bare_directory(names[0])


if __name__ == "__main__":
    main()
