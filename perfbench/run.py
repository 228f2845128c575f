#!/usr/bin/env python3
"""Build the lock library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the last line of standard output
is the benchmark's result object.  See perfbench/BENCHMARK.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_checked(cmd, timeout):
    # Build chatter goes to stderr: stdout carries only the result.
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except subprocess.CalledProcessError as e:
        fail(f"command failed ({e.returncode}): {' '.join(cmd)}")
    except subprocess.TimeoutExpired:
        fail(f"command timed out: {' '.join(cmd)}")


def build(target):
    if not (ROOT / "src" / "core" / "factory.hpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(out), "-j", jobs, "--target", target],
                BUILD_TIMEOUT_S)
    return out / target


def source_id():
    """Git sha when the checkout is a repository, plus a hash of the sources
    the benchmark compiles (a checkout without .git still gets an id)."""
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


# glibc malloc settings for the benchmark process (see BENCHMARK.md, "Noise").
# The fixed mmap and trim thresholds keep freed memory in the heap, so every
# set-up after the first reuses warm pages instead of faulting in fresh
# ones, a cost that drifts with the host.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=1073741824")
# index_opt only: hugetlb=1 madvises the heap for transparent huge pages.
# Its 4,681 latches span ~200 MB, and on 4 KiB pages nearly every traversal
# takes TLB misses whose cost (a nested page walk under a hypervisor)
# drifts with host memory load.  Its figures therefore leave out the TLB
# cost of the latches' footprint; peak_rss_mib still shows the footprint.
HUGE_PAGE_WORKLOADS = {"index_opt"}


def run(binary, args, workload=None):
    env = dict(os.environ)
    tunables = MALLOC_TUNABLES
    if workload in HUGE_PAGE_WORKLOADS:
        tunables = "glibc.malloc.hugetlb=1:" + tunables
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), tunables) if t)
    proc = subprocess.Popen([str(binary)] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s and was stopped", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["read_hot", "write_mix", "index_opt"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the oracle/seed self-test")
    a = ap.parse_args()
    if a.selftest:
        sys.exit(run(build("oracle_selftest"), []))
    if a.workload is None:
        ap.error("--workload is required")
    binary = build("perfbench")
    sha, src = source_id()
    print("# build " + json.dumps({"git_sha": sha, "source_hash": src,
                                   "build_type": BUILD_TYPE}), flush=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans-out", str(build_dir() / f"spans-{a.workload}.json")]
    sys.exit(run(binary, args, a.workload))


if __name__ == "__main__":
    main()
