#!/usr/bin/env python3
"""The adacheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds adacheck and the per-layer probe from the checkout's sources
(Release, into .bench_build/), generates the workload's inputs from the
seed, sets up, measures for --seconds, checks every output, and prints
as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with nothing timed inside the processes under test.  --trace 1 is the
separate traced run: the per-layer metrics, timed around calls into
each layer's public functions by perfbench_probe and by the serve
client here.  The line before the result holds the run's context
(nproc, compiler, build type, commit, threads, seed, traced, sample
counts); both are appended to .bench_work/results.jsonl.

Workloads, metrics and the layer-to-end-to-end mapping: README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then (re)builds the two targets; no-op when
    nothing changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no adacheck sources next to %s" % HERE.name)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(workloads.THREADS),
                  "--target", "adacheck", "perfbench_probe"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))


def build_info():
    """Compiler and build type as CMake recorded them."""
    info = {"compiler": "unknown", "build_type": "unknown"}
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            info["build_type"] = line.split("=", 1)[1]
    for found in sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in found.read_text(errors="replace").splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith("set(%s " % key):
                    fields[key] = line.split('"')[1]
        info["compiler"] = "%s %s" % (
            fields.get("CMAKE_CXX_COMPILER_ID", "?"),
            fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return info


def commit():
    """The git commit when there is one; otherwise a hash of the sources
    the benchmark builds."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "scenarios"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in paths:
        name = str(p.relative_to(ROOT)).encode()
        digest.update(name + b"\0" + p.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def traced(b, seconds):
    """The per-layer metrics: the probe over every layer, then the serve
    phases from the client side."""
    b.write_inputs()
    s = b.size
    out = subprocess.run(
        [str(b.probe), "--dir=" + str(b.wd), "--runs=%d" % s["probe_runs"],
         "--rounds=%d" % s["probe_rounds"], "--min-ms=%d" % s["probe_min_ms"]],
        capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail("perfbench_probe exited %d" % out.returncode)
    probe = json.loads(out.stdout)
    b.tally.attempted += probe["checks"]["attempted"]
    b.tally.failed += probe["checks"]["failed"]
    metrics = dict(probe["metrics"])
    serve, jobs = workloads.serve_layers(b, max(1.0, 0.2 * seconds))
    metrics.update(serve)
    return metrics, {"probe_runs": s["probe_runs"],
                     "probe_rounds": s["probe_rounds"], "serve_jobs": jobs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="smoke = minimal inputs")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    bench = spec()
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}

    work = WORK / ("%s-%d-%d" % (args.workload, args.trace, os.getpid()))
    b = workloads.Bench(ROOT, BUILD, work, args.seed, args.size)
    t0 = time.perf_counter()
    try:
        if args.trace:
            values, samples = traced(b, args.seconds)
        else:
            run_workload = workloads.WORKLOADS[args.workload]
            values, samples = run_workload(b, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [n for n in units if not math.isfinite(values.get(n, math.nan))]
    if missing:
        fail("metrics missing or not finite: " + ", ".join(missing))
    context = dict(build_info(), nproc=os.cpu_count(), commit=commit(),
                   workload=args.workload, seed=args.seed,
                   traced=bool(args.trace),
                   seconds=args.seconds, size=args.size,
                   threads=workloads.THREADS, connections=workloads.THREADS,
                   samples=samples, run_wall_s=time.perf_counter() - t0)
    result = {"correct": b.tally.failed == 0 and b.tally.attempted > 0,
              "attempted": b.tally.attempted, "failed": b.tally.failed,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in units.items()}}
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as log:
        log.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
