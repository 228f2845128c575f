// Figure 5 sweep runner: regenerates the paper's throughput-vs-threads
// series for a given read percentage, across the five plotted locks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "harness/workload.hpp"

namespace oll::bench {

struct SweepConfig {
  std::uint32_t read_pct = 100;
  std::vector<std::uint32_t> thread_counts;
  std::vector<LockKind> locks;
  std::uint64_t acquires_per_thread = 0;  // 0 => pick per paper methodology
  std::uint32_t repetitions = 3;          // §5.1: average of three runs
  std::uint64_t cs_work = 0;
  Mode mode = Mode::kSim;
  std::uint64_t seed = 42;
  // Per-thread warmup acquisitions before each measured run (see
  // workload.hpp: stats are rebased and the real-mode wall clock restarted
  // at the phase boundary).
  std::uint64_t warmup_acquires = 0;
  // C-SNZI tuning overrides (see workload.hpp); unset keeps mode defaults.
  std::optional<LeafMapping> leaf_mapping;
  std::optional<std::uint32_t> sticky_arrivals;
  // Writer-arbitration overrides (see workload.hpp); unset keeps the
  // factory default (cohort metalock).
  std::optional<MetalockKind> metalock;
  std::optional<std::uint32_t> cohort_budget;
  // Flat-combining knobs (see workload.hpp).
  bool combine = false;
  std::optional<std::uint32_t> combine_budget;
  bool delegate_writes = false;
  // Robustness knobs (see workload.hpp): per-op acquisition timeout (0 =
  // blocking), fault-injection profile name (empty = none), and the
  // stuck-acquisition watchdog (real mode only).
  std::uint64_t timeout_ns = 0;
  std::string fault_profile;
  bool watchdog = false;
  // Real mode only: pin worker threads to host CPUs (workload.hpp).
  bool pin_threads = false;

  // The paper runs 100k acquisitions per thread, reduced to 10k at <=50%
  // reads.  Virtual time is near-deterministic, so we default much lower to
  // keep single-core sim sweeps fast (throughput is a ratio; the series
  // shape is unaffected).  Pass --acquires to any bench binary to raise it.
  std::uint64_t effective_acquires() const {
    if (acquires_per_thread != 0) return acquires_per_thread;
    return (read_pct <= 50) ? 300 : 1000;
  }
};

struct SweepCell {
  std::uint32_t threads = 0;
  LockKind lock{};
  double mean_throughput = 0.0;
  double stddev = 0.0;
  // Operation counters (and, when latency timing was enabled, acquire
  // latency histograms) summed over the cell's repetitions.
  LockStatsSnapshot stats{};
};

struct SweepResult {
  SweepConfig config;
  std::vector<SweepCell> cells;

  double at(std::uint32_t threads, LockKind k) const;
};

// Paper x-axis: 1..256 on a 4x64 machine, dense enough to show the
// 64-thread cliff.
std::vector<std::uint32_t> default_thread_counts(std::uint32_t max_threads);

SweepResult run_sweep(const SweepConfig& config, bool verbose = true);

// Emit the series as CSV: "threads,GOLL,FOLL,..." — one row per count.
void print_series(std::ostream& os, const SweepResult& result);

// Human-readable header describing the run (figure id, workload, machine).
void print_header(std::ostream& os, const std::string& figure_name,
                  const SweepConfig& config);

// --- observability pass (DESIGN.md §9) -----------------------------------
//
// A separate, non-gated pass run AFTER a throughput sweep: re-runs each lock
// once at a single thread count with latency timing (and, when a trace path
// is given, event tracing) runtime-enabled, then exports the results.  The
// gated sweep above therefore always executes with every hook disabled.

struct ObservabilityConfig {
  SweepConfig sweep;            // locks / read_pct / mode / seed / warmup...
  std::uint32_t threads = 0;    // 0 => max of sweep.thread_counts
  std::string trace_path;       // non-empty => export Chrome-trace JSON
  std::string stats_json_path;  // non-empty => export per-lock stats JSON
  std::uint32_t ring_capacity = 1u << 13;
};

// Runs the pass, prints a per-lock latency table to `os`, and writes the
// requested export files.  Returns false if an export file could not be
// written.
bool run_observability_pass(std::ostream& os, const ObservabilityConfig& cfg);

// Version of the --stats_json document layout (docs/STATS_SCHEMA.md).
// Bump on any breaking change to field names or meanings.  v2 added
// schema_version itself, trace_enabled, per-lock trace_dropped and
// per-histogram overflow.  v3 added the flat-combining counters
// (combined_ops, combine_batches, combine_handoffs_saved).  v4 added the
// spin-then-park counters (parks, unparks, spurious_wakes) and the
// park_wait histogram (DESIGN.md §16).
inline constexpr int kStatsJsonSchemaVersion = 4;

// JSON fragments shared by the stats exports (the observability pass and
// the latency_fairness bench): {"count":..,"mean":..,"p50":..,...} for a
// histogram, and the full counter + histogram set for a snapshot.
void write_histogram_json(std::ostream& out, const HistogramSnapshot& h);
void write_lock_stats_json(std::ostream& out, const LockStatsSnapshot& s);

// One per-lock entry of a --stats_json document.
struct StatsJsonRow {
  std::string name;
  LockStatsSnapshot stats;
  std::uint64_t trace_dropped = 0;  // ring-wrap losses during the run
};

// Write a complete --stats_json document (layout: docs/STATS_SCHEMA.md,
// version kStatsJsonSchemaVersion).  The single writer behind every stats
// export, so all producers emit the same schema.  Returns false if the
// file could not be written.
bool write_stats_json_file(const std::string& path, Mode mode,
                           const char* unit, std::uint32_t threads,
                           std::uint32_t read_pct, std::uint64_t acquires,
                           bool trace_enabled,
                           const std::vector<StatsJsonRow>& rows);

}  // namespace oll::bench
