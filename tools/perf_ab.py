#!/usr/bin/env python3
"""A/B comparison of two git revisions on one perfbench workload.

    python3 tools/perf_ab.py --base REV --change REV --workload NAME \\
        [--pairs 10] [--seconds 15] [--seed 1] [--scratch DIR]

Exports each revision with `git archive` into DIR/<commit> (default: a
perf_ab directory under the system temp dir; an existing export is
reused, build tree included), then runs

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0

on both for --pairs pairs, seeds --seed, --seed + 1, ..., alternating
which revision goes first.  Uncommitted work can be measured as
`--change $(git stash create)` after `git add -A`.

Per end-to-end metric of the change's BENCHMARK.json it prints the base
median [quartiles] -> change median, the pairs the change won, and
whether the benchmark's gain rule holds: the change wins at least 9 of
every 10 pairs, and its median is better than the base median by more
than the base's interquartile range.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The gain rule: the share of pairs the change must win.
WIN_SHARE = 0.9


def quartiles(samples):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def rule(base, change, better):
    """Judges paired samples (base[i] and change[i] share a seed) of one
    metric where `better` is "lower" or "higher"."""
    if len(base) != len(change) or not base:
        raise ValueError("rule needs two non-empty samples of equal length")
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    q1, median, q3 = quartiles(base)
    change_median = statistics.median(change)
    gain = sign * (median - change_median)
    needed = math.ceil(WIN_SHARE * len(base) - 1e-9)
    return {
        "pairs": len(base), "won": won, "needed": needed,
        "base_median": median, "base_q1": q1, "base_q3": q3,
        "change_median": change_median,
        "holds": won >= needed and gain > q3 - q1,
    }


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    if out.returncode:
        sys.exit("perf_ab: git %s failed: %s" % (" ".join(args),
                                                 out.stderr.strip()))
    return out.stdout.strip()


def export(rev, scratch):
    """The revision's sources under scratch/<commit>, exported once."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    target = scratch / commit
    done = target / ".perf_ab_exported"
    if not done.is_file():
        target.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive,
                       check=True)
        done.touch()
    return commit, target


def measure(tree, workload, seed, seconds):
    """One perfbench run: its metrics, name -> value."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.stderr.write(out.stderr)
        sys.exit("perf_ab: perfbench failed in %s" % tree)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perf_ab: %s: %d of %d operations failed" %
                 (tree, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; pair i runs seed + i")
    parser.add_argument("--scratch", type=Path,
                        default=Path(tempfile.gettempdir()) / "perf_ab")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0 or args.seed < 0:
        sys.exit("perf_ab: --pairs >= 1, --seconds > 0 and --seed >= 0")

    sides = {}
    for side in ("base", "change"):
        sides[side] = export(getattr(args, side), args.scratch.resolve())
    spec = json.loads((sides["change"][1] / "BENCHMARK.json").read_text())
    samples = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            samples[side].append(
                measure(sides[side][1], args.workload, seed, args.seconds))
        print("pair %d/%d (seed %d) done" % (i + 1, args.pairs, seed),
              file=sys.stderr)

    print("perf_ab %s: base %s -> change %s, %d pairs, seeds %d-%d, %g s" %
          (args.workload, sides["base"][0][:12], sides["change"][0][:12],
           args.pairs, args.seed, args.seed + args.pairs - 1, args.seconds))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not all(name in run for side in samples.values() for run in side):
            continue
        verdict = rule([run[name] for run in samples["base"]],
                       [run[name] for run in samples["change"]],
                       metric["better"])
        print("  %-12s %.4g [%.4g, %.4g] -> %.4g %s, won %d/%d, rule %s" % (
            name, verdict["base_median"], verdict["base_q1"],
            verdict["base_q3"], verdict["change_median"], metric["unit"],
            verdict["won"], verdict["pairs"],
            "holds" if verdict["holds"] else "fails"))


if __name__ == "__main__":
    main()
