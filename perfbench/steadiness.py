#!/usr/bin/env python3
"""Steadiness report: run one build repeatedly and print the spread of every
end-to-end metric.

    python3 perfbench/steadiness.py [--runs 10] [--workloads read_hot,...]
                                    [--seed-base 1] [--out results.json]

Each run uses another seed (seed-base, seed-base+1, ...).  For each workload
and metric the report prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and IQR/median, and flags a metric whose
spread exceeds its BENCHMARK.json bound ("OVER") or a third of it ("warn").
It also prints the median of the host-speed gauge think_ns_per_iter from
the "# health" lines: two sets whose gauges differ ran on a differently
loaded host (see BENCHMARK.md, "Host state").
Exit 1 when a run fails or any spread is "OVER".
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    p = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {p.returncode})")
    health = next((json.loads(l[len("# health "):]) for l in lines
                   if l.startswith("# health ")), {})
    return json.loads(lines[-1]), health


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write every raw result here (JSON)")
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw, over = {}, []
    for wl in a.workloads.split(","):
        runs = []
        for i in range(a.runs):
            res, health = run_once(wl, a.seed_base + i, a.seconds)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{wl}: oracle failed on seed {a.seed_base + i}")
            runs.append({"seed": a.seed_base + i, "result": res, "health": health})
            print(f"  {wl} seed {a.seed_base + i}: steal {health.get('steal_s')} s, "
                  f"cpu_util {health.get('cpu_util')}, "
                  f"think_ns_per_iter {health.get('think_ns_per_iter')}",
                  file=sys.stderr, flush=True)
        raw[wl] = runs
        print(f"\n{wl} ({a.runs} runs, {a.seconds:g} s each)")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>10}{'bound':>8}  flag")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "OVER"
                over.append(f"{wl}/{name}")
            elif spread > bound / 3:
                flag = "warn"
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>10.4f}{bound:>8.3f}  {flag}")
        gauge = [r["health"].get("think_ns_per_iter", 0.0) for r in runs]
        g1, gmed, g3 = statistics.quantiles(gauge, n=4)
        print(f"  host gauge think_ns_per_iter: median {gmed:.4g}, "
              f"q1 {g1:.4g}, q3 {g3:.4g}")
    if a.out:
        Path(a.out).write_text(json.dumps(raw, indent=1))
    if over:
        print("\nspread over bound: " + ", ".join(over))
        sys.exit(1)


if __name__ == "__main__":
    main()
