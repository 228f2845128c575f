#include "harness/sweep.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>

#include "platform/stats.hpp"
#include "platform/trace.hpp"
#include "harness/driver.hpp"
#include "harness/trace_export.hpp"

namespace oll::bench {

double SweepResult::at(std::uint32_t threads, LockKind k) const {
  for (const auto& c : cells) {
    if (c.threads == threads && c.lock == k) return c.mean_throughput;
  }
  return 0.0;
}

std::vector<std::uint32_t> default_thread_counts(std::uint32_t max_threads) {
  const std::uint32_t candidates[] = {1,  2,  4,  8,   16,  32, 48,
                                      64, 96, 128, 192, 256};
  std::vector<std::uint32_t> out;
  for (std::uint32_t c : candidates) {
    if (c <= max_threads) out.push_back(c);
  }
  if (out.empty() || out.back() != max_threads) out.push_back(max_threads);
  return out;
}

SweepResult run_sweep(const SweepConfig& config, bool verbose) {
  SweepResult result;
  result.config = config;
  for (std::uint32_t threads : config.thread_counts) {
    for (LockKind kind : config.locks) {
      RunningStats stats;
      sim::OpCounters last_counters{};
      LockStatsSnapshot last_stats{};
      LockStatsSnapshot cell_stats{};
      std::uint64_t last_total = 1;
      for (std::uint32_t rep = 0; rep < config.repetitions; ++rep) {
        WorkloadConfig w;
        w.threads = threads;
        w.read_pct = config.read_pct;
        w.acquires_per_thread = config.effective_acquires();
        w.cs_work = config.cs_work;
        w.seed = config.seed + rep;
        w.warmup_acquires = config.warmup_acquires;
        w.leaf_mapping = config.leaf_mapping;
        w.sticky_arrivals = config.sticky_arrivals;
        w.metalock = config.metalock;
        w.cohort_budget = config.cohort_budget;
        w.combine = config.combine;
        w.combine_budget = config.combine_budget;
        w.delegate_writes = config.delegate_writes;
        w.timeout_ns = config.timeout_ns;
        w.fault_profile = config.fault_profile;
        w.watchdog = config.watchdog;
        w.pin_threads = config.pin_threads;
        RunResult r = run_workload(kind, w, config.mode);
        stats.add(r.throughput());
        last_counters = r.counters;
        last_stats = r.lock_stats;
        last_total = std::max<std::uint64_t>(r.total_acquires, 1);
        cell_stats += r.lock_stats;
      }
      result.cells.push_back(SweepCell{threads, kind, stats.mean(),
                                       stats.stddev(), cell_stats});
      if (verbose) {
        std::cerr << "  [" << lock_kind_name(kind) << " @" << threads
                  << " threads] " << std::scientific << std::setprecision(3)
                  << stats.mean() << " acquires/s";
        if (config.mode == Mode::kSim) {
          const double n = static_cast<double>(last_total);
          std::cerr << std::fixed << std::setprecision(2) << "  per-acq:"
                    << " rmw=" << static_cast<double>(last_counters.rmws) / n
                    << " core="
                    << static_cast<double>(last_counters.samecore_transfers) / n
                    << " chip="
                    << static_cast<double>(last_counters.onchip_transfers) / n
                    << " xchip="
                    << static_cast<double>(last_counters.offchip_transfers) / n
                    << " casfail="
                    << static_cast<double>(
                           last_counters.emulated_cas_failures) / n;
          // Per-order histogram (fence-reduction ablation): the memory-order
          // audit's win shows up as mass shifting from seq_cst toward
          // relaxed/acq_rel at unchanged throughput.
          std::cerr << "  orders:";
          for (std::uint32_t i = 0; i < sim::kMemoryOrderCount; ++i) {
            if (last_counters.order_ops[i] == 0) continue;
            std::cerr << " " << sim::memory_order_name(i) << "="
                      << static_cast<double>(last_counters.order_ops[i]) / n;
          }
        }
        const CSnziStatsSnapshot& cz = last_stats.csnzi;
        if (cz.arrivals() != 0) {
          // Arrival-path mix (last rep): how much root traffic readers paid.
          const double a = static_cast<double>(cz.arrivals());
          std::cerr << std::fixed << std::setprecision(2) << "  snzi:"
                    << " direct=" << static_cast<double>(cz.direct_arrivals) / a
                    << " tree=" << static_cast<double>(cz.tree_arrivals) / a
                    << " sticky=" << static_cast<double>(cz.sticky_arrivals) / a
                    << " rootread="
                    << static_cast<double>(cz.root_reads) / a
                    << " rootprop="
                    << static_cast<double>(cz.root_propagations) / a;
        }
        std::cerr << "\n";
      }
    }
  }
  return result;
}

void print_series(std::ostream& os, const SweepResult& result) {
  os << "threads";
  for (LockKind k : result.config.locks) os << "," << lock_kind_name(k);
  os << "\n";
  for (std::uint32_t threads : result.config.thread_counts) {
    os << threads;
    for (LockKind k : result.config.locks) {
      os << "," << std::scientific << std::setprecision(6)
         << result.at(threads, k);
    }
    os << "\n";
  }
}

void print_header(std::ostream& os, const std::string& figure_name,
                  const SweepConfig& config) {
  os << "# " << figure_name << "\n"
     << "# read_pct=" << config.read_pct
     << " acquires/thread=" << config.effective_acquires()
     << " reps=" << config.repetitions << " mode=" << mode_name(config.mode);
  if (config.timeout_ns != 0) os << " timeout_ns=" << config.timeout_ns;
  if (!config.fault_profile.empty()) {
    os << " fault_profile=" << config.fault_profile;
  }
  if (config.mode == Mode::kSim) {
    os << " machine=T5440(4 chips x 64 hw-threads, shared-L2 on chip)";
  }
  os << "\n";
}

namespace {
constexpr double kSimGhz = 1.4;  // matches the driver's kSimHz
}  // namespace

void write_histogram_json(std::ostream& out, const HistogramSnapshot& h) {
  out << "{\"count\":" << h.count << ",\"mean\":" << h.mean()
      << ",\"p50\":" << h.percentile(50.0)
      << ",\"p95\":" << h.percentile(95.0)
      << ",\"p99\":" << h.percentile(99.0) << ",\"max\":" << h.max
      // Saturation: samples that landed in the last (unbounded) log2
      // bucket, where percentile resolution is gone.  Non-zero means the
      // histogram range was too small for this workload.
      << ",\"overflow\":" << h.buckets[kHistogramBuckets - 1] << "}";
}

void write_lock_stats_json(std::ostream& out, const LockStatsSnapshot& s) {
  out << "\"read_fast\":" << s.read_fast
      << ",\"read_queued\":" << s.read_queued
      << ",\"write_fast\":" << s.write_fast
      << ",\"write_queued\":" << s.write_queued
      << ",\"read_bias\":" << s.read_bias
      << ",\"bias_revoke\":" << s.bias_revoke
      << ",\"meta_handoffs\":" << s.meta_handoffs
      << ",\"meta_cohort_hits\":" << s.meta_cohort_hits
      << ",\"meta_cross_domain\":" << s.meta_cross_domain
      << ",\"wake_cohort_hits\":" << s.wake_cohort_hits
      << ",\"wake_cross_domain\":" << s.wake_cross_domain
      << ",\"read_timeouts\":" << s.read_timeouts
      << ",\"write_timeouts\":" << s.write_timeouts
      << ",\"read_abandons\":" << s.read_abandons
      << ",\"write_abandons\":" << s.write_abandons
      << ",\"revoke_timeouts\":" << s.revoke_timeouts
      << ",\"combined_ops\":" << s.combined_ops
      << ",\"combine_batches\":" << s.combine_batches
      << ",\"combine_handoffs_saved\":" << s.combine_handoffs_saved
      << ",\"opt_reads\":" << s.opt_reads
      << ",\"opt_validation_failures\":" << s.opt_validation_failures
      << ",\"opt_fallbacks\":" << s.opt_fallbacks
      << ",\"parks\":" << s.parks
      << ",\"unparks\":" << s.unparks
      << ",\"spurious_wakes\":" << s.spurious_wakes
      << ",\"read_acquire\":";
  write_histogram_json(out, s.read_acquire);
  out << ",\"write_acquire\":";
  write_histogram_json(out, s.write_acquire);
  out << ",\"writer_wait\":";
  write_histogram_json(out, s.writer_wait);
  out << ",\"timed_acquire\":";
  write_histogram_json(out, s.timed_acquire);
  out << ",\"opt_read\":";
  write_histogram_json(out, s.opt_read);
  out << ",\"park_wait\":";
  write_histogram_json(out, s.park_wait);
}

bool write_stats_json_file(const std::string& path, Mode mode,
                           const char* unit, std::uint32_t threads,
                           std::uint32_t read_pct, std::uint64_t acquires,
                           bool trace_enabled,
                           const std::vector<StatsJsonRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  // Schema documented in docs/STATS_SCHEMA.md; bump schema_version on any
  // breaking change.
  out << "{\"schema_version\":" << kStatsJsonSchemaVersion << ",\"mode\":\""
      << mode_name(mode) << "\",\"unit\":\"" << unit
      << "\",\"threads\":" << threads << ",\"read_pct\":" << read_pct
      << ",\"acquires_per_thread\":" << acquires
      << ",\"trace_enabled\":" << (trace_enabled ? "true" : "false")
      << ",\"locks\":{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << rows[i].name << "\":{";
    write_lock_stats_json(out, rows[i].stats);
    out << ",\"trace_dropped\":" << rows[i].trace_dropped << "}";
  }
  out << "}}\n";
  return out.good();
}

bool run_observability_pass(std::ostream& os,
                            const ObservabilityConfig& cfg) {
  const SweepConfig& sc = cfg.sweep;
  std::uint32_t threads = cfg.threads;
  if (threads == 0) {
    for (std::uint32_t t : sc.thread_counts) threads = std::max(threads, t);
    if (threads == 0) threads = 4;
  }
  const bool want_trace = !cfg.trace_path.empty();
  // Latency units: ns in real mode, virtual cycles in sim mode (the sim
  // trace clock is the per-thread virtual clock).
  const char* unit = sc.mode == Mode::kSim ? "cycles" : "ns";
  // Perfetto timestamps are microseconds.
  const double ts_scale = sc.mode == Mode::kSim ? 1e-3 / kSimGhz : 1e-3;

  latency_timing_enable();
  if (want_trace) {
    TraceOptions topts;
    topts.ring_capacity = cfg.ring_capacity;
    trace_enable(topts);
  }

  std::vector<StatsJsonRow> rows;
  std::vector<TraceRun> trace_runs;
  for (LockKind kind : sc.locks) {
    WorkloadConfig w;
    w.threads = threads;
    w.read_pct = sc.read_pct;
    w.acquires_per_thread = sc.effective_acquires();
    w.cs_work = sc.cs_work;
    w.seed = sc.seed;
    w.warmup_acquires = sc.warmup_acquires;
    w.leaf_mapping = sc.leaf_mapping;
    w.sticky_arrivals = sc.sticky_arrivals;
    w.metalock = sc.metalock;
    w.cohort_budget = sc.cohort_budget;
    w.combine = sc.combine;
    w.combine_budget = sc.combine_budget;
    w.delegate_writes = sc.delegate_writes;
    w.timeout_ns = sc.timeout_ns;
    w.fault_profile = sc.fault_profile;
    w.watchdog = sc.watchdog;
    w.pin_threads = sc.pin_threads;
    RunResult r = run_workload(kind, w, sc.mode);
    rows.push_back({lock_kind_name(kind), r.lock_stats, 0});
    if (want_trace) {
      // Drain per lock run so each gets its own process in the export.
      TraceRun run;
      run.name = std::string(lock_kind_name(kind)) + " t=" +
                 std::to_string(threads) + " r=" +
                 std::to_string(sc.read_pct);
      run.dump = trace_drain();
      run.ts_scale = ts_scale;
      rows.back().trace_dropped = run.dump.dropped;
      trace_runs.push_back(std::move(run));
    }
  }

  if (want_trace) trace_disable();
  latency_timing_disable();

  os << "# observability pass: threads=" << threads << " read_pct="
     << sc.read_pct << " acquires/thread=" << sc.effective_acquires()
     << " unit=" << unit << "\n"
     << "lock,read_p50,read_p99,write_p50,write_p99,wrwait_p50,wrwait_p99\n";
  for (const StatsJsonRow& row : rows) {
    os << row.name << std::fixed << std::setprecision(0)
       << "," << row.stats.read_acquire.percentile(50.0)
       << "," << row.stats.read_acquire.percentile(99.0)
       << "," << row.stats.write_acquire.percentile(50.0)
       << "," << row.stats.write_acquire.percentile(99.0)
       << "," << row.stats.writer_wait.percentile(50.0)
       << "," << row.stats.writer_wait.percentile(99.0) << "\n";
  }

  bool ok = true;
  if (!cfg.stats_json_path.empty()) {
    ok = write_stats_json_file(cfg.stats_json_path, sc.mode, unit, threads,
                               sc.read_pct, sc.effective_acquires(),
                               want_trace, rows);
  }
  if (want_trace && ok) {
    ok = write_chrome_trace_file(cfg.trace_path, trace_runs);
  }
  return ok;
}

}  // namespace oll::bench
