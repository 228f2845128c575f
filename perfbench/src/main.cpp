// perfbench: one run of one workload (see perfbench/BENCHMARK.md).
//
//   perfbench --workload read_hot|write_mix|index_opt --seed N --seconds S
//             [--trace 0|1] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics of the workload's factory lock;
// --trace 1 replays the same traffic through the layer ladder and prints
// the per-layer ledger (and writes the traced run's spans to --spans-out).
// The last stdout line is the result object; a "# health" line before it
// records how trustworthy the run was.  Exit 0 only when the oracle passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/driver.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace pb = perfbench;

namespace {

constexpr std::uint32_t kEpochs = 15;         // fresh set-ups per run
constexpr std::uint32_t kSlicesPerEpoch = 4;  // measured slices per set-up
constexpr double kWarmupS = 0.15;             // per epoch, before slice 1
constexpr std::size_t kSpanCap = 1 << 16;  // spans kept per worker (traced)
// Sizing of the traced rung's sampling stride: an upper estimate of one
// worker's op rate and of the spans an op records on average.
constexpr double kTracedOpsPerS = 2e6;
constexpr double kSpansPerOp = 8;
constexpr std::uint64_t kSimAcquires = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "read_hot|write_mix|index_opt --seed N --seconds S "
               "[--trace 0|1] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed wants an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds >= 1 && a.seconds <= 120)) {
        usage("--seconds wants a number in [1, 120]");
      }
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
      if (a.trace != 0 && a.trace != 1) usage("--trace wants 0 or 1");
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (pb::find_workload(a.workload) == nullptr) usage("unknown --workload");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Anonymous memory backed by transparent huge pages, from smaps_rollup.
double anon_huge_mib() {
  std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "AnonHugePages: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One metric of the result object, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

struct Health {
  std::size_t allowed_cpus = 0;
  long online_cpus = 0;
  std::vector<int> worker_cpus;
  bool pinned = false;
  double steal_s = 0;
  double cpu_util = 0;  // process CPU / (workers x wall) over the window
  double think_ns_per_iter = 0;  // host speed: median over measured slices
  std::uint64_t checksum = 0;
  std::uint64_t torn = 0;
  std::uint64_t lost = 0;
  std::uint64_t attempted = 0;
};

void print_health(const Args& a, const Health& h) {
  std::string cpus;
  for (int c : h.worker_cpus) cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  std::printf(
      "# health {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %zu, \"online_cpus\": %ld, \"workers\": %u, "
      "\"worker_cpus\": [%s], \"pinned\": %s, \"steal_s\": %.3f, "
      "\"cpu_util\": %.4f, \"think_ns_per_iter\": %.4f, "
      "\"anon_huge_mib\": %.1f, \"build_type\": \"%s\", "
      "\"optimized\": %s, "
      "\"flags\": {\"OLL_TRACE\": %d, \"OLL_FAULTS\": %d, "
      "\"OLL_REGISTRY\": %d, \"OLL_PARK\": %d, \"OLL_DWCAS\": %d}, "
      "\"stream_checksum\": \"%016llx\", \"torn_reads\": %llu, "
      "\"lost_updates\": %llu, \"failed_op_share\": %.6g}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      h.allowed_cpus, h.online_cpus, pb::kWorkers, cpus.c_str(),
      h.pinned ? "true" : "false", h.steal_s, h.cpu_util, h.think_ns_per_iter,
      anon_huge_mib(),
      PERFBENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false", OLL_TRACE, OLL_FAULTS,
      OLL_REGISTRY, OLL_PARK, OLL_DWCAS,
      static_cast<unsigned long long>(h.checksum),
      static_cast<unsigned long long>(h.torn),
      static_cast<unsigned long long>(h.lost),
      ratio(static_cast<double>(h.torn + h.lost),
            static_cast<double>(h.attempted)));
}

std::uint64_t torn_of(const pb::WindowResult& r) {
  std::uint64_t n = 0;
  for (const auto& w : r.workers) n += w.torn;
  return n;
}

// --- end-to-end run ----------------------------------------------------------

int run_end_to_end(const Args& a, const pb::Workload& wl,
                   const pb::Streams& streams, Health& h) {
  // kEpochs times: a complete fresh set-up (locks, records, pinned workers),
  // a warm-up, then kSlicesPerEpoch measured slices.  Each metric is the
  // median over every slice of every epoch.  setup_s is the fastest set-up:
  // host steal only ever adds to a set-up, and a burst of it can cover
  // most of a run's epochs, which moved the median set-up 30-fold.
  std::vector<double> setups, tput, cpu, rp50, rp99, wp50, wp99, think;
  double wall_s = 0, cpu_s = 0;
  h.pinned = true;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    const double began = pb::now_s();
    auto stack = std::make_unique<pb::AnyStack>(wl, wl.kind);
    std::vector<pb::Record> recs(wl.nodes());
    pb::Plan plan;
    plan.warmup_s = kWarmupS;
    plan.slices = kSlicesPerEpoch;
    plan.slice_s = a.seconds / (kEpochs * kSlicesPerEpoch);
    const pb::WindowResult r = pb::run_window<false>(
        *stack, recs, wl, streams, h.worker_cpus, plan, began);
    setups.push_back(r.start_s);
    const double tpn = r.ticks_per_ns();
    for (std::uint32_t s = 1; s <= kSlicesPerEpoch; ++s) {
      const pb::Boundary& b0 = r.marks[s - 1];
      const pb::Boundary& b1 = r.marks[s];
      const pb::SliceOut m = r.slice(s);
      const double ops = static_cast<double>(m.reads + m.writes);
      tput.push_back(ops / (b1.wall_s - b0.wall_s));
      cpu.push_back((b1.cpu_s - b0.cpu_s) * 1e6 / ops);
      rp50.push_back(m.read.quantile(0.50) / tpn);
      rp99.push_back(m.read.quantile(0.99) / tpn);
      wp50.push_back(m.write.quantile(0.50) / tpn);
      wp99.push_back(m.write.quantile(0.99) / tpn);
      think.push_back(ratio(static_cast<double>(m.think_ticks) / tpn,
                            static_cast<double>(m.think_iters)));
    }
    const pb::Boundary& first = r.marks.front();
    const pb::Boundary& last = r.marks.back();
    h.steal_s += last.steal_s - first.steal_s;
    cpu_s += last.cpu_s - first.cpu_s;
    wall_s += last.wall_s - first.wall_s;
    h.pinned &= r.pinned;
    h.attempted += r.attempted();
    h.torn += torn_of(r);
    h.lost += pb::final_state_failures(recs, r.writes());
    const auto tail = [](const std::vector<double>& v) {
      return median(std::vector<double>(v.end() - kSlicesPerEpoch, v.end()));
    };
    std::fprintf(stderr,
                 "  epoch %u: set-up %.6f s, %.0f ops/s, %.4f us/op, read p50 "
                 "%.1f p99 %.1f, write p50 %.1f p99 %.1f ns, steal %.2f s\n",
                 e + 1, r.start_s, tail(tput), tail(cpu), tail(rp50),
                 tail(rp99), tail(wp50), tail(wp99),
                 last.steal_s - first.steal_s);
  }
  h.cpu_util = cpu_s / (pb::kWorkers * wall_s);
  h.think_ns_per_iter = median(think);
  const std::uint64_t failed = h.torn + h.lost;
  print_health(a, h);
  std::fprintf(stderr,
               "perfbench %s: %.0f ops/s, read p50 %.1f ns, write p50 "
               "%.1f ns, failed_op_share %.3g\n",
               wl.name.c_str(), median(tput), median(rp50), median(wp50),
               ratio(static_cast<double>(failed),
                     static_cast<double>(h.attempted)));
  print_result(failed == 0, h.attempted, failed,
               {{"ops_per_s", median(tput), "1/s"},
                {"cpu_us_per_op", median(cpu), "us"},
                {"read_p50_ns", median(rp50), "ns"},
                {"read_p99_ns", median(rp99), "ns"},
                {"write_p50_ns", median(wp50), "ns"},
                {"write_p99_ns", median(wp99), "ns"},
                {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
                {"peak_rss_mib", peak_rss_mib(), "MiB"}});
  return failed == 0 ? 0 : 1;
}

// --- traced ledger -------------------------------------------------------------

// What one rung of the ladder measured.
struct Rung {
  double read_ns = 0;   // mean read per latch level (acquire..release)
  double write_ns = 0;  // mean write (acquire..release)
  double ops_per_s = 0;
  std::uint64_t reads = 0, restarts = 0, fallbacks = 0;  // measured slice
  oll::LockStatsSnapshot stats;
  pb::WindowResult window;  // kept for the traced rung's spans
};

// Everything the rungs of one ledger run share.
struct Ladder {
  const pb::Workload& wl;
  const pb::Streams& streams;
  Health& h;  // accumulates attempted ops and oracle failures
  double window_s;
  std::uint32_t span_stride;
};

// The traced rung records one op in this many: the power of two that lets
// its kept spans reach the end of the window with half the buffer to spare.
std::uint32_t span_stride_for(double window_s) {
  const double want =
      window_s * kTracedOpsPerS * kSpansPerOp / static_cast<double>(kSpanCap / 2);
  std::uint32_t s = 1;
  while (s < want) s <<= 1;
  return s;
}

// Run one rung: a fresh Stack(wl, args...) under the workload's traffic.
template <bool Traced, typename Stack, typename... A>
Rung run_rung(Ladder& l, const char* name, A... args) {
  Stack stack(l.wl, args...);
  std::vector<pb::Record> recs(l.wl.nodes());
  pb::Plan plan;
  plan.warmup_s = 0.1;
  plan.slices = 1;
  plan.slice_s = l.window_s;
  plan.span_cap = kSpanCap;
  plan.span_stride = l.span_stride;
  Rung g;
  g.window = pb::run_window<Traced>(stack, recs, l.wl, l.streams,
                                    l.h.worker_cpus, plan, pb::now_s());
  const pb::SliceOut m = g.window.slice(1);
  const double tpn = g.window.ticks_per_ns();
  g.reads = m.reads;
  g.read_ns = ratio(static_cast<double>(m.read_ticks) / tpn,
                    static_cast<double>(m.reads) * (l.wl.depth + 1));
  g.write_ns = ratio(static_cast<double>(m.write_ticks) / tpn,
                     static_cast<double>(m.writes));
  g.ops_per_s = static_cast<double>(m.reads + m.writes) /
                (g.window.marks[1].wall_s - g.window.marks[0].wall_s);
  for (const auto& w : g.window.workers) {
    g.restarts += w.restarts;
    g.fallbacks += w.fallbacks;
  }
  g.stats = stack.stats();
  l.h.attempted += g.window.attempted();
  l.h.pinned &= g.window.pinned;
  if (Stack::kExclusive) {
    const std::uint64_t torn = torn_of(g.window);
    const std::uint64_t lost = pb::final_state_failures(recs, g.window.writes());
    if (torn + lost != 0) {
      std::fprintf(stderr, "perfbench: oracle failed on rung %s\n", name);
    }
    l.h.torn += torn;
    l.h.lost += lost;
  }
  std::fprintf(stderr, "  rung %-14s read %8.1f ns/latch  write %8.1f ns  "
               "%.0f ops/s\n", name, g.read_ns, g.write_ns, g.ops_per_s);
  return g;
}

// Which configuration-dependent paths a rung's stats say its lock took
// (BRAVO bias, optimistic reads, combining, parking), and whether the stats
// count exactly the latch acquisitions the rung made, warm-up included.
// GollDirectStack copies the factory's kGoll option mapping by hand; equal
// shapes for the goll-direct and goll rungs show the two still agree.
std::uint32_t stats_shape(const Rung& g, const pb::Workload& wl) {
  const oll::LockStatsSnapshot& s = g.stats;
  const std::uint64_t paths[] = {
      s.read_bias,    s.bias_revoke,  s.opt_reads,
      s.opt_fallbacks, s.combined_ops, s.parks};
  std::uint32_t shape = 0, bit = 0;
  for (std::uint64_t n : paths) shape |= static_cast<std::uint32_t>(n != 0) << bit++;
  const std::uint64_t writes = g.window.writes();
  const std::uint64_t reads = g.window.attempted() - writes;
  shape |= static_cast<std::uint32_t>(s.reads() == reads * (wl.depth + 1)) << bit++;
  shape |= static_cast<std::uint32_t>(s.writes() == writes) << bit++;
  return shape;
}

// Span self times (mean ns by kind) plus op self time; writes the spans as
// a Chrome trace when `path` is set.
std::map<std::string, double> span_ledger(const pb::WindowResult& r,
                                          const std::string& path) {
  const double tpn = r.ticks_per_ns();
  double sum[7] = {}, cnt[7] = {};
  double op_self = 0, op_cnt = 0;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& w : r.workers) {
    double children = 0;  // direct children of the op being assembled
    for (const pb::Span& s : w.spans.spans) {
      t0 = std::min(t0, s.start);
      const double d = static_cast<double>(s.end - s.start) / tpn;
      const int k = static_cast<int>(s.kind);
      sum[k] += d;
      cnt[k] += 1;
      switch (s.kind) {
        case pb::SpanKind::kAcquire:
        case pb::SpanKind::kCs:
        case pb::SpanKind::kRelease:
        case pb::SpanKind::kTraversal:
          children += d;
          break;
        case pb::SpanKind::kOp:
          op_self += d - children;
          op_cnt += 1;
          children = 0;
          break;
        default:
          break;
      }
    }
  }
  std::uint64_t last = 0;
  std::size_t kept = 0;
  for (const auto& w : r.workers) {
    kept += w.spans.spans.size();
    for (const pb::Span& s : w.spans.spans) last = std::max(last, s.end);
  }
  const std::uint64_t w0 = r.marks.front().tsc, w1 = r.marks.back().tsc;
  std::fprintf(stderr,
               "  traced: 1 op in %u recorded, %zu spans, from %.3f to %.3f s "
               "of the %.3f s measured window\n",
               r.workers.empty() ? 0u : r.workers[0].spans.stride, kept,
               kept == 0 ? 0.0 : (static_cast<double>(t0) - static_cast<double>(w0)) / tpn * 1e-9,
               kept == 0 ? 0.0 : (static_cast<double>(last) - static_cast<double>(w0)) / tpn * 1e-9,
               static_cast<double>(w1 - w0) / tpn * 1e-9);
  if (!path.empty()) {
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"traceEvents\": [\n");
      bool first = true;
      for (std::size_t w = 0; w < r.workers.size(); ++w) {
        for (const pb::Span& s : r.workers[w].spans.spans) {
          std::fprintf(f,
                       "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                       "\"tid\": %zu, \"ts\": %.4f, \"dur\": %.4f, "
                       "\"args\": {\"op\": %u, \"level\": %u}}",
                       first ? "" : ",\n",
                       pb::kSpanNames[static_cast<int>(s.kind)], w,
                       static_cast<double>(s.start - t0) / tpn * 1e-3,
                       static_cast<double>(s.end - s.start) / tpn * 1e-3, s.op,
                       static_cast<unsigned>(s.level));
          first = false;
        }
      }
      std::fprintf(f, "\n]}\n");
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::map<std::string, double> out;
  for (auto k : {pb::SpanKind::kAcquire, pb::SpanKind::kCs,
                 pb::SpanKind::kRelease, pb::SpanKind::kThink,
                 pb::SpanKind::kLatch}) {
    const int i = static_cast<int>(k);
    out[std::string("span.") + pb::kSpanNames[i] + "_ns"] = ratio(sum[i], cnt[i]);
  }
  out["span.op_self_ns"] = ratio(op_self, op_cnt);
  return out;
}

// Exact per-op counts from the simulator: factory GOLL on SimMemory, three
// simulated threads driven by the harness loop at the workload's read
// share.  The BRAVO kinds are left out: their bias re-enable window is
// timed on the real clock, so their counts do not repeat run to run.
struct SimCounts {
  double rmws = 0, transfers = 0;
};

SimCounts sim_counts(const pb::Workload& wl, std::uint64_t seed) {
  oll::LockFactoryOptions o;
  o.max_threads = 64;
  o.csnzi.topology = &oll::sim::t5440_cpu_topology();
  o.csnzi.topology_mapping = oll::LeafMapping::kSmtCluster;
  o.csnzi.leaves = 64;
  o.csnzi.root_cas_fail_threshold = 1;
  o.metalock.topology = &oll::sim::t5440_cpu_topology();
  o.register_lock = false;
  auto lock = oll::make_rwlock<oll::sim::SimMemory>(oll::LockKind::kGoll, o);
  oll::sim::Machine machine(oll::sim::t5440_topology(), oll::sim::t5440_costs(),
                            512);
  oll::bench::WorkloadConfig c;
  c.threads = pb::kWorkers;
  c.read_pct = 100 - wl.write_per_mille / 10;
  c.acquires_per_thread = kSimAcquires;
  c.seed = seed;
  const oll::bench::RunResult r =
      oll::bench::run_sim_workload_on(*lock, c, machine);
  const double ops = static_cast<double>(r.total_acquires);
  const auto& k = r.counters;
  return {ratio(static_cast<double>(k.rmws), ops),
          ratio(static_cast<double>(k.samecore_transfers + k.onchip_transfers +
                                    k.offchip_transfers),
                ops)};
}

int run_ledger(const Args& a, const pb::Workload& wl,
               const pb::Streams& streams, Health& h) {
  // Eight windows share the run's seconds: seven ladder rungs plus the
  // traced repeat of the workload's own stack.
  const double win = std::max(0.3, a.seconds / 8.0 - 0.15);
  h.pinned = true;
  Ladder l{wl, streams, h, win, span_stride_for(win)};
  using oll::LockKind;
  const Rung null = run_rung<false, pb::NullStack>(l, "null");
  const Rung snzi = run_rung<false, pb::SnziStack>(l, "csnzi");
  const Rung meta = run_rung<false, pb::MetalockStack>(l, "metalock");
  const Rung direct = run_rung<false, pb::GollDirectStack>(l, "goll-direct");
  const Rung goll = run_rung<false, pb::AnyStack>(l, "goll", LockKind::kGoll);
  if (stats_shape(direct, wl) != stats_shape(goll, wl)) {
    std::fprintf(stderr,
                 "perfbench: goll-direct no longer mirrors the factory's goll "
                 "(stats shapes %#x vs %#x); update GollDirectStack, or "
                 "core.dispatch_ns compares different configurations\n",
                 stats_shape(direct, wl), stats_shape(goll, wl));
    return 4;
  }
  const Rung bravo =
      run_rung<false, pb::AnyStack>(l, "bravo-goll", LockKind::kBravoGoll);
  const Rung opt = run_rung<false, pb::AnyStack>(l, "opt-bravo-goll",
                                                 LockKind::kOptBravoGoll);
  const Rung& untraced = wl.kind == LockKind::kGoll ? goll : opt;
  const Rung traced = run_rung<true, pb::AnyStack>(l, "traced", wl.kind);

  std::vector<Metric> m;
  auto add = [&](const std::string& n, double v, const char* unit) {
    m.push_back({n, v, unit});
  };
  const oll::LockStatsSnapshot& gs = goll.stats;
  const double arrivals = static_cast<double>(gs.csnzi.arrivals());
  add("core.dispatch_ns", goll.read_ns - direct.read_ns, "ns");
  add("goll.read_ns", direct.read_ns - null.read_ns, "ns");
  add("goll.read_fast_ratio",
      ratio(static_cast<double>(gs.read_fast), static_cast<double>(gs.reads())),
      "ratio");
  add("goll.write_ns", direct.write_ns - null.write_ns, "ns");
  add("goll.write_queued_ratio",
      ratio(static_cast<double>(gs.write_queued),
            static_cast<double>(gs.writes())),
      "ratio");
  add("snzi.arrive_depart_ns", snzi.read_ns - null.read_ns, "ns");
  add("snzi.close_open_ns", snzi.write_ns - null.write_ns, "ns");
  add("snzi.root_cas_fail_ratio",
      ratio(static_cast<double>(gs.csnzi.root_cas_failures), arrivals),
      "ratio");
  add("snzi.sticky_ratio",
      ratio(static_cast<double>(gs.csnzi.sticky_arrivals), arrivals), "ratio");
  add("snzi.root_reads_per_arrive",
      ratio(static_cast<double>(gs.csnzi.root_reads), arrivals), "count");
  add("metalock.lock_unlock_ns", meta.write_ns - null.write_ns, "ns");
  add("metalock.handoffs_per_write",
      ratio(static_cast<double>(gs.meta_handoffs),
            static_cast<double>(gs.writes())),
      "count");
  add("wait_queue.read_queued_per_op",
      ratio(static_cast<double>(gs.read_queued),
            static_cast<double>(gs.reads() + gs.writes())),
      "count");
  const oll::LockStatsSnapshot& bs = bravo.stats;
  add("bravo.bias_hit_ratio",
      ratio(static_cast<double>(bs.read_bias), static_cast<double>(bs.reads())),
      "ratio");
  add("bravo.revokes_per_write",
      ratio(static_cast<double>(bs.bias_revoke),
            static_cast<double>(bs.writes())),
      "count");
  add("bravo.write_ns", bravo.write_ns - goll.write_ns, "ns");
  const oll::LockStatsSnapshot& os = opt.stats;
  add("opt.begin_validate_ns", opt.read_ns - null.read_ns, "ns");
  add("opt.success_ratio",
      ratio(static_cast<double>(os.opt_reads),
            static_cast<double>(os.opt_reads + os.opt_validation_failures)),
      "ratio");
  const double opt_reads = static_cast<double>(opt.reads);
  add("opt.restarts_per_traversal",
      ratio(static_cast<double>(opt.restarts), opt_reads), "count");
  add("opt.fallback_ratio",
      ratio(static_cast<double>(opt.fallbacks), opt_reads), "ratio");
  const SimCounts sim = sim_counts(wl, a.seed);
  add("sim.goll.rmws_per_op", sim.rmws, "count");
  add("sim.goll.transfers_per_op", sim.transfers, "count");
  add("trace.overhead_frac", 1.0 - ratio(traced.ops_per_s, untraced.ops_per_s),
      "ratio");
  for (const auto& [name, v] : span_ledger(traced.window, a.spans_out)) {
    add(name, v, "ns");
  }

  // Health of the traced rung, the one the spans come from.
  const pb::Boundary& first = traced.window.marks.front();
  const pb::Boundary& last = traced.window.marks.back();
  h.steal_s = last.steal_s - first.steal_s;
  h.cpu_util =
      (last.cpu_s - first.cpu_s) / (pb::kWorkers * (last.wall_s - first.wall_s));
  const pb::SliceOut ts = traced.window.slice(1);
  h.think_ns_per_iter = ratio(static_cast<double>(ts.think_ticks) /
                                  traced.window.ticks_per_ns(),
                              static_cast<double>(ts.think_iters));
  const std::uint64_t failed = h.torn + h.lost;
  print_health(a, h);
  print_result(failed == 0, h.attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const pb::Workload& wl = *pb::find_workload(a.workload);
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: refusing to run an unoptimized build\n");
    return 3;
  }
  Health h;
  const std::vector<int> cpus = pb::allowed_cpus();
  h.allowed_cpus = cpus.size();
  h.online_cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus.size() < pb::kWorkers + 1) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: %u workers would take every "
                 "one of the %zu usable vCPUs\n",
                 pb::kWorkers, cpus.size());
    return 3;
  }
  // The first usable CPU stays free of workers for the OS and this thread.
  (void)pb::pin_self(cpus[0]);
  h.worker_cpus.assign(cpus.begin() + 1, cpus.begin() + 1 + pb::kWorkers);
  const pb::Streams streams = pb::make_streams(wl, a.seed);
  h.checksum = streams.checksum;
  return a.trace == 0 ? run_end_to_end(a, wl, streams, h)
                      : run_ledger(a, wl, streams, h);
}
