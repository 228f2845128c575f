// Flat-combining / delegation ablation (DESIGN.md §15): what each piece of
// the delegated writer path buys on the write-heavy Figure 5 workloads.
//
//   cohort baseline — GOLL with the cohort metalock, plain lock()/unlock()
//                     writes.  In sim mode plain write sections carry no
//                     in-section yield, so under the round-robin host they
//                     are never observed held (all-fast-path regime) — this
//                     row is the no-waiting reference, not the contended
//                     incumbent
//   delegated, no combine — same lock, writes routed through with_write();
//                     with the combining pool off the closure degrades to
//                     acquire-execute-release.  Delegated sections yield
//                     in-section (harness/driver.cpp), so writers genuinely
//                     overlap and wait — THIS is the contended cohort-
//                     metalock incumbent the combining rows must beat
//   combine         — combining pool on: the goll-combining factory kind
//
// plus a combining-budget sweep (max slots drained per release) at
// write-only.  fig5f (0% reads) and fig5c (95% reads) are the workloads
// the writer path actually gates; the thread counts straddle the paper's
// 64-thread (one-chip) cliff.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

namespace ob = oll::bench;

namespace {

struct Variant {
  const char* name;
  bool delegate;                  // route writes through with_write()
  bool combine;                   // enable the combining pool
  std::uint32_t combine_budget;   // 0 = lock default
};

double run_variant(const Variant& v, std::uint32_t threads,
                   std::uint32_t read_pct, std::uint64_t acquires,
                   std::uint32_t reps) {
  double sum = 0.0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    ob::WorkloadConfig w;
    w.threads = threads;
    w.read_pct = read_pct;
    w.acquires_per_thread = acquires;
    w.seed = 42 + rep;
    w.combine = v.combine;
    w.delegate_writes = v.delegate;
    if (v.combine_budget != 0) w.combine_budget = v.combine_budget;
    sum += ob::run_workload(oll::LockKind::kGoll, w, ob::Mode::kSim)
               .throughput();
  }
  return sum / reps;
}

void run_table(const char* title, std::uint32_t read_pct,
               const std::vector<Variant>& variants,
               const std::vector<std::uint32_t>& threads,
               std::uint64_t acquires, std::uint32_t reps) {
  ob::print_variant_table(
      std::string(title) + " (read_pct=" + std::to_string(read_pct) + ")",
      variants, threads, [&](const Variant& v, std::uint32_t t) {
        return run_variant(v, t, read_pct, acquires, reps);
      });
}

}  // namespace

int main(int argc, char** argv) {
  ob::Flags flags(argc, argv);
  const std::uint64_t acquires = flags.get_u64("acquires", 300);
  const auto reps = static_cast<std::uint32_t>(flags.get_u64("reps", 1));
  const std::vector<std::uint32_t> thread_counts = {8, 32, 64};

  const std::vector<Variant> pieces = {
      {"cohort baseline (no delegation)", false, false, 0},
      {"delegated, no combine", true, false, 0},
      {"combine (goll-combining)", true, true, 0},
  };

  std::cout << "# Flat-combining ablation: GOLL lock, simulated T5440\n"
            << "# (DESIGN.md §15: delegated writes execute on the current "
               "holder, in-cache)\n";
  run_table("fig5f write-only", 0, pieces, thread_counts, acquires, reps);
  run_table("fig5c 95% reads", 95, pieces, thread_counts, acquires, reps);

  const std::vector<Variant> budgets = {
      {"combine budget 1", true, true, 1},
      {"combine budget 8", true, true, 8},
      {"combine budget 64 (default)", true, true, 64},
      {"combine budget 256", true, true, 256},
  };
  run_table("combine budget sweep, write-only", 0, budgets, thread_counts,
            acquires, reps);
  return 0;
}
