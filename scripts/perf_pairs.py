#!/usr/bin/env python3
"""Compare a base revision against the working tree on one perfbench workload.

    python3 scripts/perf_pairs.py --workload read_hot --pairs 10
    python3 scripts/perf_pairs.py --workload read_hot --pairs 4 \\
        --cxxflags=-falign-functions=64 --seconds 10
    python3 scripts/perf_pairs.py --workload read_hot --pairs 2 --trace 1

The base (default: HEAD when the working tree has changes, else HEAD~1) is
exported with `git archive` into a scratch directory.  Each pair runs
perfbench/run.py once on each side with the same seed; seeds differ across
pairs and the side that runs first alternates.  Each side builds into its
own CARGO_TARGET_DIR, so --cxxflags (exported as CXXFLAGS before the first
configure) builds both sides with the same extra flags, e.g. a code-placement
control.  One warm-up run per side builds the binaries before any
measurement.

For every metric the script prints the base and change medians with their
quartiles, the change of the medians relative to the base, and in how many
pairs the change was better (per BENCHMARK.json's `better`).  `resolved`
says whether the medians differ by more than the base's interquartile range.
--json writes every raw value as well.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def default_base():
    dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    return "HEAD" if dirty else "HEAD~1"


def export_tree(rev, dest):
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                              rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def better_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = (m["better"], m.get("bound"))
    return out


def run_side(tree, build, args, seed, seconds, trace, log):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    if args.cxxflags:
        env["CXXFLAGS"] = args.cxxflags
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    with open(log, "a") as err:
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=err, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed ({proc.returncode}) in {tree}; "
                 f"see {log}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"perf_pairs: incorrect result in {tree}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(samples, better):
    names = list(samples["base"][0])
    rows = []
    for name in names:
        b = [s[name] for s in samples["base"]]
        c = [s[name] for s in samples["change"]]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        direction, bound = better.get(name, ("lower", None))
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        rel = (cmed - bmed) / bmed if bmed else float("nan")
        resolved = abs(cmed - bmed) > (bq3 - bq1)
        spread = (bq3 - bq1) / bmed if bmed else float("nan")
        rows.append((name, bmed, bq1, bq3, cmed, cq1, cq3, rel, wins, len(b),
                     resolved, spread, bound))
    print(f"{'metric':28} {'base med [q1, q3]':>32} {'change med [q1, q3]':>32}"
          f" {'change':>8} {'wins':>6} resolved")
    for (name, bmed, bq1, bq3, cmed, cq1, cq3, rel, wins, n, resolved, spread,
         bound) in rows:
        note = ""
        if bound is not None and spread > bound:
            note = f"  base spread {spread:.0%} > bound {bound:.0%}"
        print(f"{name:28} {bmed:12.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(61) +
              f" {cmed:12.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(33) +
              f" {rel:+8.1%} {wins:>3}/{n:<2} "
              f"{'yes' if resolved else 'no'}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["read_hot", "write_mix", "index_opt"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of the first pair; pair i uses seed0 + i")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--base", default=None,
                    help="revision to compare against (default: the parent)")
    ap.add_argument("--cxxflags", default="",
                    help="extra CXXFLAGS for both sides' builds")
    ap.add_argument("--workdir", default=None,
                    help="keep the exported base and both build trees here "
                         "(reused by later calls with the same flags); "
                         "default: a temporary directory, removed at exit")
    ap.add_argument("--json", default=None, help="write raw samples here")
    args = ap.parse_args()
    base_rev = args.base or default_base()
    sha = git("rev-parse", base_rev).strip()

    work = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="perf_pairs-"))
    try:
        base_tree = work / f"base-{sha[:12]}"
        if not base_tree.is_dir():
            export_tree(sha, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        builds = {side: work / f"build-{side}" for side in trees}
        log = work / "runs.log"
        print(f"# base {base_rev} ({sha[:12]}) vs working tree; "
              f"{args.workload}, {args.pairs} pairs x {args.seconds:g} s; "
              f"log {log}", flush=True)
        for side in trees:  # warm-up: builds, then a short discarded run
            run_side(trees[side], builds[side], args, args.seed0, 2.0, 0, log)
        samples = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                samples[side].append(run_side(
                    trees[side], builds[side], args, seed, args.seconds,
                    args.trace, log))
            print(f"# pair {i + 1}/{args.pairs} (seed {seed}) done",
                  flush=True)
        if args.json:
            Path(args.json).write_text(json.dumps(
                {"base": sha, "workload": args.workload,
                 "seconds": args.seconds, "cxxflags": args.cxxflags,
                 "samples": samples}, indent=1))
        report(samples, better_map())
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
