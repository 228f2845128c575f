#!/usr/bin/env python3
"""Bench-trajectory smoke gate.

Runs a small, fast benchmark set — the virtual-time sim sweeps for fig5a
(read-only), fig5f (write-only) and fig5c (95% reads), plus the
micro_csnzi / micro_uncontended google-benchmark binaries — and records the
results as BENCH_<n>.json at the repo root, where <n> continues the sequence
of git-tracked BENCH_*.json files.  The sim-mode figure numbers are stable
in virtual time (run-to-run spread is a few percent from host scheduling),
so they are *gated*: a drop of more than --threshold (default 20%) versus
the previous committed snapshot fails the run.  fig5a keys are unprefixed
("GOLL.t64") for continuity with older snapshots; the write-heavy series
added with the metalock work use prefixed keys ("fig5f.GOLL.t64").
Real-time micro numbers vary with the host and are recorded as
informational only.  Every snapshot carries a "meta" provenance stamp:
the git SHA (and dirty flag) that produced it, the CMake build type, and
the observability build flags (OLL_TRACE/OLL_REGISTRY) — so a
cross-snapshot comparison can tell a real regression from a config change.

Two exceptions to "real time is informational": the pinned real-hardware
read-path series ("realtime.GOLL.t2", ...) is *gated* — it runs fig5a in
--mode=real with --pin (worker threads bound to topology CPUs) and --reps
averaging, and is compared with its own generous --realtime-threshold
(default 50%) since even pinned wall-clock numbers swing with the host.
This is the tripwire for the memory-order relaxation work: a downgraded
fence that stalls the real read fast path shows up here, not in the
virtual-time sim gate.  The oversubscription series ("park.fig5f.x16.
ratio_pure", ...) is likewise gated: the keys are park/pure-spin
throughput *ratios* from bench/oversubscribe (dimensionless, so
comparable across hosts), checked against a hard --park-floor (default
3.0) at 16x oversubscription in the read-mostly mix — the DESIGN.md
§16 degradation claim.
park.* keys are exempt from the snapshot-drift comparison: the
pure-spin denominator on an oversubscribed host swings >3x run-to-run
with scheduling, so the absolute floor is the signal.  And baseline
matching itself is checked: if the
previous snapshot has gated keys but none of them match the current
series names, the run fails with a setup error instead of silently
gating nothing.

The per-lock footprint ("footprint.opt-bravo-goll.bytes_mt4", ...) is
recorded in its own "footprint" section: heap bytes one factory lock of
each kind allocates at construction, at max_threads 4 and 512, from
tests/footprint_test --print.  It is deterministic, so it is gated by a
hard ceiling per key (the test's own table, DESIGN.md §17): a change that
grows any kind past its ceiling fails the run.

Usage: scripts/bench_smoke.py [--build-dir build] [--threshold 0.20]
                              [--realtime-threshold 0.50] [--skip-micro]
                              [--skip-realtime]
Exit status: 0 on pass, 1 on regression, 2 on setup error.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Gated sim sweeps: virtual time, kept small so the gate stays fast.
# fig5a exercises the reader fast path across the OLL locks; fig5f and
# fig5c exercise the writer-arbitration path (the metalock) on GOLL, the
# lock whose writer path the cohort MCS work targets.  The write-heavy
# sweeps use --reps so the serialized writer chain averages out scheduling
# noise (observed spread <3% at this config).
FIG5A_ARGS = ["--mode=sim", "--threads=64", "--acquires=4000",
              "--locks=goll,foll,roll"]
WRITE_SWEEP_ARGS = ["--mode=sim", "--threads=64", "--acquires=800",
                    "--reps=2", "--locks=goll"]
# Flat-combining series (DESIGN.md §15): fig5f-shaped write-only sweep with
# writes routed through with_write() for BOTH kinds, so the plain cohort
# lock (acquire-execute-release) and the combining kind contend under the
# same delegated-section workload.  Gated like the other sim series.
COMBINE_ARGS = ["--mode=sim", "--threads=64", "--acquires=400",
                "--reps=2", "--locks=goll,goll-combining",
                "--delegate_writes"]
# (binary, args, key prefix) per gated figure.  fig5a stays unprefixed so
# its keys line up with snapshots that predate the write-heavy series.
GATED_FIGS = (
    ("fig5a", "fig5a_read_only", FIG5A_ARGS, ""),
    ("fig5f", "fig5f_write_only", WRITE_SWEEP_ARGS, "fig5f."),
    ("fig5c", "fig5c_95_reads", WRITE_SWEEP_ARGS, "fig5c."),
    ("combine", "fig5f_write_only", COMBINE_ARGS, "combine."),
)
# Gated real-hardware series: the read fast path on actual silicon, pinned
# (--pin binds worker w to topology CPU w) and rep-averaged so the numbers
# are placement-reproducible.  Tiny thread counts: CI containers may expose
# a single CPU.  Compared with --realtime-threshold, not --threshold.
REALTIME_PREFIX = "realtime."
REALTIME_ARGS = ["--mode=real", "--threads=2", "--acquires=20000",
                 "--reps=3", "--pin", "--locks=goll,foll,roll"]
# Acquire-latency percentiles (informational): the post-sweep observability
# pass (DESIGN.md §9) re-runs each lock at the max swept thread count with
# latency timing enabled, so the gated sweep itself still executes with
# every hook disabled.
LATENCY_HISTS = ("read_acquire", "write_acquire", "writer_wait")
LATENCY_PCTS = ("p50", "p99")
# Timed-acquisition series (informational, DESIGN.md §11): a short mixed
# sim run with --timeout_ns so the abandon paths execute under writer load;
# records the timed_acquire histogram percentiles plus the timeout/abandon
# counters per lock.  Not gated: timeout counts depend on host scheduling.
TIMED_ARGS = ["--mode=sim", "--threads=32", "--acquires=400",
              "--locks=goll,foll,roll", "--timeout_ns=200000"]
TIMED_COUNTERS = ("read_timeouts", "write_timeouts", "read_abandons",
                  "write_abandons")
# Optimistic read mode series (informational, DESIGN.md §13): the
# index_traversal latch-coupling bench at a read-only and a 95%-read mix.
# Records traversal throughput per kind plus the optimistic counters
# (opt_reads / validation failures / fallbacks) scraped from the bench's
# "# optstat" comment lines at the top thread count.  Not gated yet: the
# series is new this snapshot; EXPERIMENTS.md carries the ablation.
OPT_ARGS = ["--mode=sim", "--threads=64", "--acquires=60",
            "--locks=opt-goll,bravo-goll,goll"]
OPT_READ_PCTS = (100, 95)
OPT_TOP_THREADS = 64
OPT_COUNTERS = ("opt_reads", "opt_failures", "opt_fallbacks")
# Oversubscription series (DESIGN.md §16): bench/oversubscribe runs the
# fig5c/fig5f mixes at 4x/16x hardware concurrency under three GOLL waiting
# disciplines (pure paper-faithful spin / yielding spin / spin-then-park)
# and emits one "# parkstat" line per cell.  The gated keys are the
# park/pure throughput *ratios* — self-normalizing across hosts, so they
# can be compared snapshot-to-snapshot, but still wall-clock noisy, so
# they use --realtime-threshold.  The 16x ratios additionally have a hard
# floor (--park-floor): the tentpole claim is that spin-then-park sustains
# >= 3x the throughput of the paper's pure-spin discipline at 16x.
# Absolute throughputs and CPU-seconds/op are recorded as informational.
PARK_PREFIX = "park."
PARK_ARGS = ["--mults=4,16", "--secs=0.4", "--cs_work=16"]
PARK_FLOOR_MULT = 16
# The hard --park-floor applies only to the read-mostly mix: there the
# pure-spin collapse is structural (parked readers stop burning the
# holder's quantum) and the measured ratio is robustly >10x.  In the
# write-heavy mix on a timeshared 1-core host threads serialize, so
# pure-spin throughput is scheduling luck (observed 0.9x-65x run to run)
# — recorded, but not a floor.
PARK_FLOOR_MIX = "fig5c"
# Informational micro benches (real time; host-dependent).
MICRO_FILTERS = {
    "micro_csnzi": ("BM_ArriveDepart_Root|BM_ArriveDepart_Adaptive$|"
                    "BM_ArriveDepart_Contended/threads:8$|"
                    "BM_ArriveDepart_Contended_StickyOff/threads:8$|"
                    "BM_TreeArrive_SaturatedLeaf"),
    "micro_uncontended": ("BM_Read_(GOLL|FOLL|ROLL)|"
                          "BM_Write_(GOLL|FOLL|ROLL)|BM_OptRead_"),
}


def run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True,
                              cwd=REPO_ROOT).stdout
    except FileNotFoundError:
        print(f"bench_smoke: missing binary: {cmd[0]}", file=sys.stderr)
        sys.exit(2)
    except subprocess.CalledProcessError as e:
        print(f"bench_smoke: {' '.join(cmd)} failed:\n{e.stderr}",
              file=sys.stderr)
        sys.exit(2)


def parse_fig5_csv(text, prefix=""):
    """threads,LOCKA,LOCKB\\n1,2.3e7,... -> {"<prefix>GOLL.t64": 1.5e8, ...}"""
    metrics = {}
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if cells[0] == "threads":
            header = cells[1:]
            continue
        if not cells[0].isdigit():
            # A non-numeric first cell after the sweep is another table
            # (e.g. the observability pass's latency CSV): stop collecting.
            header = None
            continue
        if header is None:
            continue
        threads = cells[0]
        for name, value in zip(header, cells[1:]):
            metrics[f"{prefix}{name}.t{threads}"] = float(value)
    return metrics


def parse_latency_json(path, prefix=""):
    """stats_json -> {"latency.<prefix>GOLL.read_acquire.p50": 207.0, ...}

    Histograms with no samples (e.g. write_acquire on the read-only fig5a
    run) are skipped, so the write-heavy sweeps are what populate the
    write_acquire and writer_wait percentile series."""
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    unit = doc.get("unit", "")
    for lock, stats in doc.get("locks", {}).items():
        for hist in LATENCY_HISTS:
            h = stats.get(hist)
            if not isinstance(h, dict) or not h.get("count"):
                continue
            for pct in LATENCY_PCTS:
                metrics[f"latency.{prefix}{lock}.{hist}.{pct}"] = h[pct]
    if unit:
        metrics["latency.unit"] = unit
    return metrics


def collect_fig5(build_dir, binary_name, fig_args, prefix):
    """One invocation feeds both series: stdout CSV is the gated sweep
    (hooks disabled); --stats_json captures the post-sweep observability
    pass's latency percentiles (informational)."""
    binary = os.path.join(build_dir, "bench", binary_name)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        stats_path = tmp.name
    try:
        out = run([binary] + list(fig_args) + [f"--stats_json={stats_path}"])
        return parse_fig5_csv(out, prefix), parse_latency_json(stats_path,
                                                               prefix)
    finally:
        os.unlink(stats_path)


def collect_timed(build_dir):
    """fig5c + --timeout_ns -> {"timed.GOLL.timed_acquire.p50": ..., ...}"""
    binary = os.path.join(build_dir, "bench", "fig5c_95_reads")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        stats_path = tmp.name
    try:
        run([binary] + TIMED_ARGS + [f"--stats_json={stats_path}"])
        with open(stats_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(stats_path)
    metrics = {}
    for lock, stats in doc.get("locks", {}).items():
        h = stats.get("timed_acquire")
        if isinstance(h, dict) and h.get("count"):
            metrics[f"timed.{lock}.timed_acquire.count"] = h["count"]
            for pct in LATENCY_PCTS:
                metrics[f"timed.{lock}.timed_acquire.{pct}"] = h[pct]
        for counter in TIMED_COUNTERS:
            if counter in stats:
                metrics[f"timed.{lock}.{counter}"] = stats[counter]
    return metrics


def parse_optstat(text, prefix, threads):
    """index_traversal's "# optstat lock=... threads=... k=v ..." comment
    lines -> {"<prefix><LOCK>.opt_reads": ..., ...} at one thread count."""
    metrics = {}
    for line in text.splitlines():
        if not line.startswith("# optstat "):
            continue
        kv = dict(tok.split("=", 1)
                  for tok in line[len("# optstat "):].split() if "=" in tok)
        if int(kv.get("threads", -1)) != threads:
            continue
        lock = kv["lock"]
        for counter in OPT_COUNTERS:
            metrics[f"{prefix}{lock}.{counter}"] = int(kv[counter])
        reads = int(kv["opt_reads"])
        if reads:
            metrics[f"{prefix}{lock}.failure_rate"] = (
                int(kv["opt_failures"]) / reads)
    return metrics


def collect_opt(build_dir):
    """index_traversal at two read mixes -> informational opt.* series."""
    binary = os.path.join(build_dir, "bench", "index_traversal")
    metrics = {}
    for pct in OPT_READ_PCTS:
        prefix = f"opt.r{pct}."
        out = run([binary, f"--read_pct={pct}"] + OPT_ARGS)
        metrics.update(parse_fig5_csv(out, prefix))
        metrics.update(parse_optstat(out, prefix, OPT_TOP_THREADS))
    return metrics


def collect_park(build_dir):
    """oversubscribe's "# parkstat mix=... mult=... k=v ..." lines ->
    (gated ratio keys, informational absolutes, 16x ratio_pure floors)."""
    binary = os.path.join(build_dir, "bench", "oversubscribe")
    out = run([binary] + PARK_ARGS)
    gated, info, floors = {}, {}, {}
    for line in out.splitlines():
        if not line.startswith("# parkstat "):
            continue
        kv = dict(tok.split("=", 1)
                  for tok in line[len("# parkstat "):].split() if "=" in tok)
        cell = f"{PARK_PREFIX}{kv['mix']}.x{kv['mult']}"
        gated[f"{cell}.ratio_pure"] = float(kv["ratio_pure"])
        if int(kv["mult"]) == PARK_FLOOR_MULT and kv["mix"] == PARK_FLOOR_MIX:
            floors[f"{cell}.ratio_pure"] = float(kv["ratio_pure"])
        info[f"{cell}.ratio_yield"] = float(kv["ratio_yield"])
        for policy in ("pure", "spin", "park"):
            info[f"{cell}.{policy}.ops_per_s"] = float(
                kv[f"{policy}_ops_per_s"])
            info[f"{cell}.{policy}.cpu_us_per_op"] = float(
                kv[f"{policy}_cpu_us_per_op"])
        info[f"{cell}.park.parks"] = int(kv["park_parks"])
    return gated, info, floors


def collect_micro(build_dir, name, bench_filter):
    binary = os.path.join(build_dir, "bench", name)
    out = run([binary, f"--benchmark_filter={bench_filter}",
               "--benchmark_format=json", "--benchmark_min_time=0.05"])
    data = json.loads(out)
    metrics = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        metrics[f"{name}.{b['name']}"] = b["real_time"]  # ns/op
    return metrics


def collect_footprint(build_dir):
    """footprint_test --print lines "footprint.<kind>.bytes_mt<N> <bytes>
    <ceiling>" -> ({key: bytes}, {key: ceiling})."""
    binary = os.path.join(build_dir, "tests", "footprint_test")
    out = run([binary, "--print"])
    sizes, ceilings = {}, {}
    for line in out.splitlines():
        if not line.startswith("footprint."):
            continue
        key, size, ceiling = line.split()
        sizes[key] = int(size)
        ceilings[key] = int(ceiling)
    if not sizes:
        print("bench_smoke: footprint_test --print produced no lines",
              file=sys.stderr)
        sys.exit(2)
    return sizes, ceilings


def collect_meta(build_dir):
    """Provenance stamp for the snapshot: which commit produced these
    numbers, and which build configuration (observability hooks change the
    binary even when runtime-disabled, so flag values matter when comparing
    across snapshots).  Best-effort: a missing git or cache file records
    "unknown" rather than failing the gate."""
    meta = {"git_sha": "unknown", "git_dirty": None,
            "build_type": "unknown",
            "flags": {}, "modes": {"sim": "virtual-time simulated T5440",
                                   "real": "host wall clock"}}
    try:
        meta["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=REPO_ROOT).stdout.strip()
        meta["git_dirty"] = bool(subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True, text=True,
            check=True, cwd=REPO_ROOT).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        pass
    cache = os.path.join(build_dir, "CMakeCache.txt")
    wanted = ("OLL_TRACE", "OLL_REGISTRY")
    try:
        with open(cache) as f:
            for line in f:
                line = line.strip()
                m = re.fullmatch(r"([A-Za-z_]+):[A-Z]+=(.*)", line)
                if not m:
                    continue
                if m.group(1) == "CMAKE_BUILD_TYPE":
                    meta["build_type"] = m.group(2) or "unknown"
                elif m.group(1) in wanted:
                    meta["flags"][m.group(1)] = m.group(2)
    except OSError:
        pass
    return meta


def tracked_snapshots():
    out = subprocess.run(["git", "ls-files", "BENCH_*.json"],
                         capture_output=True, text=True, cwd=REPO_ROOT).stdout
    snaps = {}
    for f in out.split():
        m = re.fullmatch(r"BENCH_(\d+)\.json", f)
        if m:
            snaps[int(m.group(1))] = os.path.join(REPO_ROOT, f)
    return snaps


def compare(prev_gated, cur_gated, threshold, realtime_threshold):
    """Gated metrics are throughputs: higher is better.

    Returns (regressions, unmatched): regressions carry the per-key limit
    that was applied (realtime.* keys use the looser realtime threshold);
    unmatched lists baseline keys absent from the current run, so renames
    fail loudly instead of silently shrinking the gate."""
    regressions = []
    unmatched = []
    for key, old in prev_gated.items():
        new = cur_gated.get(key)
        if new is None:
            unmatched.append(key)
            continue
        if old <= 0:
            continue
        if key.startswith(PARK_PREFIX):
            # park.* ratios are gated by the absolute --park-floor, not by
            # snapshot drift: the pure-spin denominator on an oversubscribed
            # host is scheduling-noise-dominated (observed >3x run-to-run),
            # so a relative window would be all flake and no signal.
            continue
        limit = (realtime_threshold
                 if key.startswith(REALTIME_PREFIX)
                 else threshold)
        drop = (old - new) / old
        if drop > limit:
            regressions.append((key, old, new, drop, limit))
    return regressions, unmatched


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max allowed fractional drop in gated metrics")
    ap.add_argument("--realtime-threshold", type=float, default=0.50,
                    help="max allowed fractional drop in the gated "
                         "realtime.* series (wall-clock: noisier)")
    ap.add_argument("--skip-micro", action="store_true",
                    help="record only the gated sim metrics")
    ap.add_argument("--skip-realtime", action="store_true",
                    help="skip the gated pinned real-hardware series")
    ap.add_argument("--skip-park", action="store_true",
                    help="skip the gated oversubscription park.* series")
    ap.add_argument("--park-floor", type=float, default=3.0,
                    help="minimum park/pure throughput ratio at 16x "
                         "oversubscription (the DESIGN.md §16 claim)")
    args = ap.parse_args()

    build_dir = os.path.join(REPO_ROOT, args.build_dir)
    gated, informational = {}, {}
    for fig, binary_name, fig_args, prefix in GATED_FIGS:
        print(f"bench_smoke: running sim {fig} sweep (gated) + latency pass")
        fig_gated, fig_latency = collect_fig5(build_dir, binary_name,
                                              fig_args, prefix)
        gated.update(fig_gated)
        informational.update(fig_latency)
    if not args.skip_realtime:
        print("bench_smoke: running pinned real-hardware read series (gated)")
        binary = os.path.join(build_dir, "bench", "fig5a_read_only")
        gated.update(parse_fig5_csv(run([binary] + REALTIME_ARGS),
                                    REALTIME_PREFIX))
    park_floor_failures = []
    if not args.skip_park:
        print("bench_smoke: running oversubscription park series (gated)")
        park_gated, park_info, park_floors = collect_park(build_dir)
        gated.update(park_gated)
        informational.update(park_info)
        for key, ratio in sorted(park_floors.items()):
            if ratio < args.park_floor:
                park_floor_failures.append((key, ratio))
    print("bench_smoke: measuring per-lock footprint (ceiling-gated)")
    footprint, footprint_ceilings = collect_footprint(build_dir)
    footprint_failures = [(k, v, footprint_ceilings[k])
                          for k, v in sorted(footprint.items())
                          if v > footprint_ceilings[k]]
    print("bench_smoke: running timed-acquisition series (informational)")
    informational.update(collect_timed(build_dir))
    print("bench_smoke: running optimistic index-traversal series "
          "(informational)")
    informational.update(collect_opt(build_dir))
    if not args.skip_micro:
        for name, flt in MICRO_FILTERS.items():
            print(f"bench_smoke: running {name} (informational)")
            informational.update(collect_micro(build_dir, name, flt))

    snaps = tracked_snapshots()
    prev_index = max(snaps) if snaps else None
    index = (prev_index + 1) if prev_index is not None else 2

    status = 0
    if prev_index is not None:
        with open(snaps[prev_index]) as f:
            prev = json.load(f)
        prev_gated = prev.get("gated", {})
        regressions, unmatched = compare(prev_gated, gated, args.threshold,
                                         args.realtime_threshold)
        if prev_gated and not any(k in gated for k in prev_gated):
            # Every baseline key is orphaned: the series were renamed or the
            # sweep silently produced nothing.  An empty comparison must not
            # read as a pass.
            print(f"bench_smoke: FAIL — BENCH_{prev_index}.json has "
                  f"{len(prev_gated)} gated keys but none match the current "
                  f"series names; the gate would be vacuous.  Rename the "
                  f"series back or migrate the baseline keys.",
                  file=sys.stderr)
            return 2
        for key in unmatched:
            print(f"bench_smoke: WARNING — baseline key '{key}' has no "
                  f"current match and was not gated", file=sys.stderr)
        if regressions:
            status = 1
            print(f"bench_smoke: FAIL — regression vs BENCH_{prev_index}.json:",
                  file=sys.stderr)
            for key, old, new, drop, limit in regressions:
                print(f"  {key}: {old:.3e} -> {new:.3e}  ({drop:.1%} drop, "
                      f"limit {limit:.0%})", file=sys.stderr)
        else:
            print(f"bench_smoke: gated metrics within {args.threshold:.0%} "
                  f"(realtime.* within {args.realtime_threshold:.0%}) "
                  f"of BENCH_{prev_index}.json; park.* gated by the "
                  f"{args.park_floor:.1f}x floor only")
    else:
        print("bench_smoke: no previous snapshot; recording baseline")

    if park_floor_failures:
        status = 1
        print(f"bench_smoke: FAIL — park/pure throughput ratio below the "
              f"{args.park_floor:.1f}x floor at {PARK_FLOOR_MULT}x "
              f"oversubscription:", file=sys.stderr)
        for key, ratio in park_floor_failures:
            print(f"  {key}: {ratio:.2f}", file=sys.stderr)

    if footprint_failures:
        status = 1
        print("bench_smoke: FAIL — per-lock footprint above its ceiling "
              "(tests/footprint_test.cpp):", file=sys.stderr)
        for key, size, ceiling in footprint_failures:
            print(f"  {key}: {size} bytes > {ceiling}", file=sys.stderr)
    else:
        print(f"bench_smoke: all {len(footprint)} footprint keys within "
              f"their ceilings")

    config = {fig: list(fig_args) for fig, _, fig_args, _ in GATED_FIGS}
    config["timed"] = list(TIMED_ARGS)
    if not args.skip_realtime:
        config["realtime"] = list(REALTIME_ARGS)
    if not args.skip_park:
        config["park"] = list(PARK_ARGS) + [f"--floor={args.park_floor}"]
    config["units"] = {"gated": "acquires/sec (sim virtual time); "
                                "realtime.* in acquires/sec (wall clock, "
                                "pinned); park.* dimensionless throughput "
                                "ratios (wall clock)",
                       "informational": "ns/op (real time); latency.* "
                                        "in sim virtual cycles",
                       "footprint": "heap bytes per lock at construction"}
    snapshot = {
        "index": index,
        "gate": {"threshold": args.threshold,
                 "realtime_threshold": args.realtime_threshold,
                 "baseline": f"BENCH_{prev_index}.json" if prev_index else None,
                 "passed": status == 0},
        "config": config,
        "meta": collect_meta(build_dir),
        "gated": gated,
        "footprint": footprint,
        "footprint_ceilings": footprint_ceilings,
        "informational": informational,
    }
    out_path = os.path.join(REPO_ROOT, f"BENCH_{index}.json")
    with open(out_path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_smoke: wrote {os.path.relpath(out_path, REPO_ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
