// Workload description and result types for the paper's benchmark (§5.1).
//
// "We evaluated the performance of each lock by making threads repeatedly
//  acquire and release the lock in a tight loop without performing any work
//  within the critical section.  Threads decide whether to acquire the lock
//  for reading or writing using a per-thread private random number generator
//  and a target read percentage. [...] We ran each experiment three times
//  and present the average of the results."
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "locks/cohort_mcs_lock.hpp"
#include "locks/lock_stats.hpp"
#include "platform/topology.hpp"
#include "sim/machine.hpp"

namespace oll::bench {

enum class Mode {
  kReal,  // wall-clock time on the host's std::atomic
  kSim,   // virtual time on the simulated T5440 coherence model
};

struct WorkloadConfig {
  std::uint32_t threads = 4;
  std::uint32_t read_pct = 100;  // 0..100
  std::uint64_t acquires_per_thread = 10000;
  // Busy work inside / outside the critical section, in abstract units
  // (iterations of a dependent computation in real mode; virtual cycles in
  // sim mode).  The paper uses 0 inside ("without performing any work").
  std::uint64_t cs_work = 0;
  std::uint64_t outside_work = 0;
  std::uint64_t seed = 42;
  // Per-thread warmup acquisitions run before the measured loop.  The
  // harness rebases the lock's stats (AnyRwLock::reset_stats) and restarts
  // the wall clock at the phase boundary, so counters, histograms and real
  // throughput cover only the measured phase.  Caveat: in sim mode the
  // virtual clock cannot be rewound mid-run, so RunResult::seconds still
  // spans both phases there.
  std::uint64_t warmup_acquires = 0;
  // C-SNZI tuning overrides (ablations / bench flags).  Unset means the
  // driver's per-mode defaults apply.
  std::optional<LeafMapping> leaf_mapping;
  std::optional<std::uint32_t> sticky_arrivals;
  // Writer-arbitration overrides (metalock ablations).  Unset means the
  // factory default (cohort metalock with its default budget).
  std::optional<MetalockKind> metalock;
  std::optional<std::uint32_t> cohort_budget;
  // Flat-combining/delegation writer mode (DESIGN.md §15).  `combine`
  // enables the lock's combining pool AND routes the loop's write sections
  // through AnyRwLock::with_write (delegation only exists for closure-style
  // writes); kGollCombining implies both regardless.  delegate_writes
  // alone routes writes through with_write without touching factory
  // options — non-combining kinds then execute acquire-closure-release,
  // the fair baseline for combining ablations.
  bool combine = false;
  std::optional<std::uint32_t> combine_budget;
  bool delegate_writes = false;

  // --- robustness knobs (DESIGN.md §11) ----------------------------------
  // Nonzero: acquire with try_lock_for / try_lock_shared_for and this
  // per-operation timeout instead of the blocking paths.  A timed-out
  // acquisition is abandoned (not retried) — that iteration produces no
  // critical section and is reported in RunResult::*_timeouts — so the
  // workload exercises the wait-abandonment protocols under load.
  std::uint64_t timeout_ns = 0;
  // Fault-injection profile armed for the run (platform/fault.hpp):
  // off|jitter|cas|preempt|chaos.  Empty leaves the process-global
  // injection state untouched; the run's seed doubles as the fault seed.
  std::string fault_profile;
  // Stuck-acquisition watchdog (harness/watchdog.hpp).  Real mode only —
  // its thresholds are wall-clock; ignored in sim mode.
  bool watchdog = false;
  // Real mode only: pin worker w to the host CPU at position w (mod count)
  // of the parsed system topology (platform/topology.hpp), the same
  // identity mapping the C-SNZI leaf and cohort domain maps assume.  This
  // is what makes real-hardware series reproducible enough to gate
  // (bench_smoke's realtime.* trajectory); ignored in sim mode, where
  // placement is already deterministic.
  bool pin_threads = false;
};

struct RunResult {
  double seconds = 0.0;  // wall time (real) or virtual time (sim)
  std::uint64_t total_acquires = 0;
  std::uint64_t read_acquires = 0;
  std::uint64_t write_acquires = 0;
  // Timed acquisitions the harness observed failing (timeout_ns != 0 runs).
  // Counted loop-side, so they cover adapter fallbacks (e.g. std-shared)
  // that never touch the lock's own stats.
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  sim::OpCounters counters{};  // sim mode only
  LockStatsSnapshot lock_stats{};  // collected at quiescence after the run

  double throughput() const {
    return seconds > 0 ? static_cast<double>(total_acquires) / seconds : 0.0;
  }
};

inline const char* mode_name(Mode m) {
  return m == Mode::kReal ? "real" : "sim";
}

}  // namespace oll::bench
