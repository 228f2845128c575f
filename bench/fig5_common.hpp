// Shared main() body for the Figure 5 bench binaries: one binary per
// subfigure, each parameterized only by the read percentage.
//
// Flags (all optional):
//   --mode=sim|real     default sim (virtual-time T5440 model; DESIGN.md §3)
//   --threads=N         cap the thread sweep (default: 256 sim / 16 real)
//   --acquires=N        acquisitions per thread (default: paper-scaled)
//   --reps=N            repetitions to average (default 1; paper uses 3)
//   --locks=a,b,c       subset of goll,foll,roll,ksuh,solaris,...; the
//                       BRAVO reader-bias wrappers sweep as bravo-goll,
//                       bravo-foll, bravo-roll, bravo-central
//   --cs_work=N         work units inside the critical section (default 0)
//   --leaf_map=K        C-SNZI leaf mapping: auto|static|thread|smt|llc|numa
//                       (default: mode default — smt on the sim topology)
//   --sticky=N          C-SNZI sticky arrival window (0 disables; default 64)
//   --metalock=K        writer-arbitration metalock: tatas|mcs|cohort
//                       (default cohort; see locks/cohort_mcs_lock.hpp)
//   --cohort_budget=N   max consecutive intra-domain handoffs (default 32)
//   --warmup=N          per-thread warmup acquisitions before each measured
//                       run (stats rebased at the phase boundary)
//
// Robustness (DESIGN.md §11):
//   --timeout_ns=N      acquire with try_*_for(N ns) instead of the blocking
//                       paths; timed-out iterations are abandoned, not
//                       retried (default 0 = blocking)
//   --fault_profile=P   arm fault injection for every run:
//                       off|jitter|cas|preempt|chaos (seeded from --seed-
//                       equivalent run seeds)
//   --pin               real mode: pin worker w to the host CPU at position
//                       w of the parsed topology (sysfs), making gated
//                       real-hardware series placement-reproducible
//   --watchdog          stuck-acquisition watchdog: dump lock state + trace
//                       rings to stderr when an acquisition exceeds
//                       max(20ms, 8 x writer-wait p99); real mode only
//
// Observability (DESIGN.md §9).  Any of the following adds a separate pass
// AFTER the throughput sweep, run with latency timing (and, for --trace,
// event tracing) enabled — the sweep itself always runs with every hook
// disabled:
//   --hist              print per-lock p50/p99 acquire-latency table
//   --stats_json=FILE   write per-lock counters + latency percentiles (JSON)
//   --trace=FILE        write lock-event trace (Chrome/Perfetto JSON)
//   --obs_threads=N     thread count for the pass (default: max swept count)
//   --trace_ring=N      per-thread ring capacity in records (default 8192)
//
// Continuous telemetry (DESIGN.md §14).  Unlike the post-sweep pass above,
// these stream live series for the WHOLE run via the global lock registry:
//   --metrics_out=FILE  Prometheus text exposition rewritten every tick at
//                       FILE, JSON-lines time series appended to FILE.jsonl
//   --metrics_port=N    serve the Prometheus text on http://127.0.0.1:N
//                       (N=0 picks a free port, printed to stderr)
//   --telemetry_interval_ms=N   exporter tick interval (default 100)
#pragma once

#include <iostream>
#include <string>

#include "bench_common.hpp"

namespace oll::bench {

inline int run_fig5(const std::string& figure_name, std::uint32_t read_pct,
                    int argc, char** argv) {
  Flags flags(argc, argv);
  SweepConfig cfg;
  cfg.read_pct = read_pct;
  if (int rc = parse_sweep_flags(flags, cfg); rc != 0) return rc;
  cfg.locks = parse_lock_list(flags, "locks", figure5_lock_kinds());

  auto telemetry = start_telemetry_flags(flags);

  print_header(std::cout, figure_name, cfg);
  SweepResult result = run_sweep(cfg, /*verbose=*/true);
  print_series(std::cout, result);

  return run_observability_flags(flags, cfg);
}

}  // namespace oll::bench
