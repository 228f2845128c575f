// Shared flag->config plumbing for the bench binaries.
//
// Before this header existed, every sweep binary re-parsed the same dozen
// flags by hand (fig5a-f via fig5_common.hpp, fig5_all and traffic_table
// with their own copies); index_traversal would have been the seventh.
// The helpers below are the single home for that boilerplate:
//
//   * parse_lock_list()      --locks=a,b,c -> vector<LockKind>
//   * parse_sweep_flags()    the full SweepConfig flag set (mode, threads,
//                            acquires, reps, cs_work, warmup, leaf_map,
//                            sticky, metalock, cohort_budget, combine,
//                            combine_budget, delegate_writes, timeout_ns,
//                            fault_profile, watchdog, pin); returns 0 on
//                            success, 2 (usage error) after printing a
//                            message for a malformed value
//   * run_observability_flags()  the post-sweep --hist/--stats_json/--trace
//                            pass (DESIGN.md §9)
//   * start_telemetry_flags()    the continuous exporter
//                            (--telemetry_interval_ms/--metrics_out/
//                            --metrics_port, DESIGN.md §14)
//
// Flag semantics are documented once, in fig5_common.hpp's header comment.
#pragma once

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "platform/fault.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace oll::bench {

// Parse a comma-separated --<key>= lock list; unknown names are skipped
// with a note.  Returns `fallback` when the flag is absent or nothing
// parsed.
inline std::vector<LockKind> parse_lock_list(
    const Flags& flags, const std::string& key,
    std::vector<LockKind> fallback) {
  if (!flags.has(key)) return fallback;
  std::vector<LockKind> kinds;
  std::stringstream ss(flags.get(key, ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (auto kind = parse_lock_kind(item)) {
      kinds.push_back(*kind);
    } else {
      std::cerr << "# unknown lock kind '" << item << "' skipped\n";
    }
  }
  return kinds.empty() ? fallback : kinds;
}

// Fill every SweepConfig field the common flag set controls (everything
// except read_pct and locks, which each binary owns).  Returns 0, or 2
// after printing a usage error for a malformed value.
inline int parse_sweep_flags(const Flags& flags, SweepConfig& cfg) {
  cfg.mode = flags.get("mode", "sim") == "real" ? Mode::kReal : Mode::kSim;
  const std::uint32_t default_max = cfg.mode == Mode::kSim ? 256 : 16;
  const auto max_threads =
      static_cast<std::uint32_t>(flags.get_u64("threads", default_max));
  cfg.thread_counts = default_thread_counts(max_threads);
  cfg.acquires_per_thread = flags.get_u64("acquires", 0);
  cfg.repetitions = static_cast<std::uint32_t>(flags.get_u64("reps", 1));
  cfg.cs_work = flags.get_u64("cs_work", 0);
  cfg.warmup_acquires = flags.get_u64("warmup", 0);
  if (flags.has("leaf_map")) {
    LeafMapping m;
    if (parse_leaf_mapping(flags.get("leaf_map", ""), m)) {
      cfg.leaf_mapping = m;
    } else {
      std::cerr
          << "unknown --leaf_map (want auto|static|thread|smt|llc|numa)\n";
      return 2;
    }
  }
  if (flags.has("sticky")) {
    cfg.sticky_arrivals =
        static_cast<std::uint32_t>(flags.get_u64("sticky", 64));
  }
  if (flags.has("metalock")) {
    if (auto k = parse_metalock_kind(flags.get("metalock", ""))) {
      cfg.metalock = *k;
    } else {
      std::cerr << "unknown --metalock (want tatas|mcs|cohort)\n";
      return 2;
    }
  }
  if (flags.has("cohort_budget")) {
    cfg.cohort_budget =
        static_cast<std::uint32_t>(flags.get_u64("cohort_budget", 32));
  }
  cfg.combine = flags.has("combine");
  if (flags.has("combine_budget")) {
    cfg.combine_budget =
        static_cast<std::uint32_t>(flags.get_u64("combine_budget", 64));
  }
  cfg.delegate_writes = flags.has("delegate_writes");
  cfg.timeout_ns = flags.get_u64("timeout_ns", 0);
  if (flags.has("fault_profile")) {
    const std::string profile = flags.get("fault_profile", "off");
    FaultProfile parsed;
    if (!fault_profile_from_name(profile.c_str(), &parsed)) {
      std::cerr
          << "unknown --fault_profile (want off|jitter|cas|preempt|chaos)\n";
      return 2;
    }
    cfg.fault_profile = profile;
  }
  cfg.watchdog = flags.has("watchdog");
  if (cfg.watchdog && cfg.mode == Mode::kSim) {
    std::cerr << "# --watchdog is wall-clock based; ignored in sim mode\n";
  }
  cfg.pin_threads = flags.has("pin");
  if (cfg.pin_threads && cfg.mode == Mode::kSim) {
    std::cerr << "# --pin is host-affinity based; ignored in sim mode\n";
  }
  return 0;
}

// The optional post-sweep observability pass.  Returns 0 (also when no
// observability flag was given) or 1 on export failure.
inline int run_observability_flags(const Flags& flags,
                                   const SweepConfig& cfg) {
  if (!flags.has("hist") && !flags.has("stats_json") && !flags.has("trace")) {
    return 0;
  }
  ObservabilityConfig obs;
  obs.sweep = cfg;
  obs.threads = static_cast<std::uint32_t>(flags.get_u64("obs_threads", 0));
  obs.stats_json_path = flags.get("stats_json", "");
  obs.trace_path = flags.get("trace", "");
  obs.ring_capacity =
      static_cast<std::uint32_t>(flags.get_u64("trace_ring", 1u << 13));
  if (!run_observability_pass(std::cout, obs)) {
    std::cerr << "observability export failed\n";
    return 1;
  }
  return 0;
}

// --- sim-variant ablation plumbing ---------------------------------------
//
// The ablation binaries (ablation_csnzi, ablation_metalock,
// ablation_queue_policy, ablation_combining, ...) all do the same three
// things: build a hand-tuned lock the factory does not expose, run it on a
// fresh simulated T5440, and print a "variant,t8,t64,..." CSV table.  Each
// used to carry its own copy of that plumbing; these helpers are its single
// home.

// The harness driver's sim-mode C-SNZI tuning (leaf placement derived from
// the simulated machine's topology, SMT siblings sharing a leaf).  Ablation
// variants start from this base so "default" rows match the fig5 binaries.
inline CSnziOptions sim_csnzi_base() {
  CSnziOptions o;
  o.topology = &sim::t5440_cpu_topology();
  o.topology_mapping = LeafMapping::kSmtCluster;
  o.leaves = 64;
  o.root_cas_fail_threshold = 1;
  return o;
}

// Run one hand-built lock variant on a fresh simulated T5440.  LockT must
// be instantiated over sim::SimMemory.
template <typename LockT, typename OptsT>
inline RunResult run_sim_variant(const char* name, const OptsT& opts,
                                 const WorkloadConfig& w) {
  sim::Machine machine(sim::t5440_topology(), sim::t5440_costs(),
                       std::max<std::uint32_t>(w.threads, 512));
  RwLockAdapter<LockT> lock(name, opts);
  return run_sim_workload_on(lock, w, machine);
}

// CSV table shared by the ablation binaries: one row per variant (anything
// with a `.name`), one column per thread count, cells produced by
// `cell(variant, threads)`.
template <typename V, typename CellFn>
inline void print_variant_table(const std::string& title,
                                const std::vector<V>& variants,
                                const std::vector<std::uint32_t>& threads,
                                CellFn cell) {
  std::cout << "# " << title << "\nvariant";
  for (auto t : threads) std::cout << ",t" << t;
  std::cout << "\n";
  for (const V& v : variants) {
    std::cout << "\"" << v.name << "\"";
    for (auto t : threads) {
      std::cout << "," << std::scientific << cell(v, t);
    }
    std::cout << "\n" << std::flush;
  }
}

// Start the continuous telemetry exporter when any of its flags was given
// (DESIGN.md §14).  Returns null otherwise.  Keep the returned handle
// alive for the duration of the run; its destructor takes a final tick.
inline std::unique_ptr<TelemetryExporter> start_telemetry_flags(
    const Flags& flags) {
  TelemetryFlagValues v;
  v.interval_ms = flags.get_u64("telemetry_interval_ms", 100);
  v.metrics_out = flags.get("metrics_out", "");
  if (flags.has("metrics_port")) {
    v.metrics_port = static_cast<int>(flags.get_u64("metrics_port", 0));
  }
  auto exp = make_telemetry_exporter(v);
  if (exp != nullptr && exp->bound_port() >= 0) {
    std::cerr << "# telemetry: serving metrics on http://127.0.0.1:"
              << exp->bound_port() << "/metrics\n";
  }
  return exp;
}

}  // namespace oll::bench
