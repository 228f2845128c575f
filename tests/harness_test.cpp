// Benchmark-harness tests: the driver performs exactly the configured
// workload (§5.1 methodology), sim runs produce sane virtual time and
// counters, the sweep machinery aggregates correctly, and the flag parser.
#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <mutex>
#include <sstream>
#include <vector>

#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/sweep.hpp"

namespace oll::bench {
namespace {

TEST(Driver, RealModePerformsExactAcquisitionCount) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 90;
  cfg.acquires_per_thread = 500;
  RunResult r = run_workload(LockKind::kFoll, cfg, Mode::kReal);
  EXPECT_EQ(r.total_acquires, 4u * 500u);
  EXPECT_EQ(r.read_acquires + r.write_acquires, r.total_acquires);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.throughput(), 0.0);
}

TEST(Driver, ReadPctIsHonoredApproximately) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 90;
  cfg.acquires_per_thread = 5000;
  RunResult r = run_workload(LockKind::kCentral, cfg, Mode::kReal);
  const double measured =
      100.0 * static_cast<double>(r.read_acquires) /
      static_cast<double>(r.total_acquires);
  EXPECT_NEAR(measured, 90.0, 2.0);
}

TEST(Driver, ReadPct100MeansNoWrites) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 300;
  RunResult r = run_workload(LockKind::kGoll, cfg, Mode::kReal);
  EXPECT_EQ(r.write_acquires, 0u);
}

TEST(Driver, ReadPct0MeansAllWrites) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 0;
  cfg.acquires_per_thread = 300;
  RunResult r = run_workload(LockKind::kSolarisLike, cfg, Mode::kReal);
  EXPECT_EQ(r.read_acquires, 0u);
}

TEST(Driver, SimModeProducesVirtualTimeAndCounters) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 200;
  RunResult r = run_workload(LockKind::kGoll, cfg, Mode::kSim);
  EXPECT_EQ(r.total_acquires, 4u * 200u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.counters.rmws, 0u);
  EXPECT_GT(r.counters.loads, 0u);
}

TEST(Driver, SimModeIsDeterministicForSameSeed) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 100;
  cfg.seed = 99;
  RunResult a = run_workload(LockKind::kCentral, cfg, Mode::kSim);
  RunResult b = run_workload(LockKind::kCentral, cfg, Mode::kSim);
  // Virtual time is a function of the interleaving, which the host
  // scheduler perturbs; but the workload composition must be identical.
  EXPECT_EQ(a.read_acquires, b.read_acquires);
  EXPECT_EQ(a.write_acquires, b.write_acquires);
}

TEST(Driver, SimUsesProvidedMachine) {
  sim::Machine machine;
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.read_pct = 50;
  cfg.acquires_per_thread = 100;
  RunResult r = run_workload(LockKind::kFoll, cfg, Mode::kSim, &machine);
  EXPECT_GT(machine.max_clock(), 0u);
  EXPECT_EQ(r.seconds, machine.max_clock() / 1.4e9);
}

TEST(Driver, CsWorkIncreasesTime) {
  WorkloadConfig fast;
  fast.threads = 1;
  fast.read_pct = 100;
  fast.acquires_per_thread = 200;
  WorkloadConfig slow = fast;
  slow.cs_work = 5000;
  RunResult a = run_workload(LockKind::kGoll, fast, Mode::kSim);
  RunResult b = run_workload(LockKind::kGoll, slow, Mode::kSim);
  EXPECT_GT(b.seconds, a.seconds);
}

cpu_set_t current_cpu_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return mask;
}

int lowest_cpu(const cpu_set_t& mask) {
  int cpu = 0;
  while (!CPU_ISSET(cpu, &mask)) ++cpu;
  return cpu;
}

// Starts the test thread from a schedule it sets itself, whatever earlier
// tests left: SCHED_OTHER, and every online CPU but the first where the
// host has three or more and allows it, so the checks below tell "the
// caller's mask" apart from both a one-CPU mask and CPU 0.  The original
// schedule returns at scope end.
class KnownCallerSchedule {
 public:
  KnownCallerSchedule()
      : original_mask_(current_cpu_mask()),
        original_policy_(sched_getscheduler(0)) {
    EXPECT_EQ(sched_getparam(0, &original_param_), 0);
    const sched_param other{};
    EXPECT_EQ(sched_setscheduler(0, SCHED_OTHER, &other), 0);
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    if (cpus >= 3) {
      cpu_set_t want;
      CPU_ZERO(&want);
      for (long c = 1; c < cpus && c < CPU_SETSIZE; ++c) CPU_SET(c, &want);
      // Refused where the process's cpuset holds none of these CPUs.
      (void)sched_setaffinity(0, sizeof(want), &want);
    }
    mask_ = current_cpu_mask();  // the kernel keeps the CPUs we may use
  }
  ~KnownCallerSchedule() {
    EXPECT_EQ(sched_setaffinity(0, sizeof(original_mask_), &original_mask_),
              0);
    EXPECT_EQ(sched_setscheduler(0, original_policy_, &original_param_), 0);
  }
  const cpu_set_t& mask() const { return mask_; }

 private:
  cpu_set_t original_mask_;
  int original_policy_;
  sched_param original_param_{};
  cpu_set_t mask_{};
};

// A sim run puts the caller on one CPU under SCHED_FIFO while it lasts; the
// caller's own mask and policy must come back exactly.
TEST(Driver, SimRunRestoresCallersCpuMaskAndPolicy) {
  KnownCallerSchedule caller;
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 90;
  cfg.acquires_per_thread = 100;
  run_workload(LockKind::kGoll, cfg, Mode::kSim);
  const cpu_set_t after = current_cpu_mask();
  EXPECT_TRUE(CPU_EQUAL(&after, &caller.mask()));
  EXPECT_EQ(sched_getscheduler(0), SCHED_OTHER);
}

// Records the CPU mask each reader runs under (read-only workloads only:
// the exclusive side is a no-op).
class CpuMaskProbe final : public AnyRwLock {
 public:
  void lock_shared() override {
    const cpu_set_t mask = current_cpu_mask();
    std::lock_guard<std::mutex> g(mu_);
    masks_.push_back(mask);
  }
  void unlock_shared() override {}
  void lock() override {}
  void unlock() override {}
  bool try_lock() override { return true; }
  bool try_lock_shared() override {
    lock_shared();
    return true;
  }
  bool try_lock_for(std::chrono::nanoseconds) override { return true; }
  bool try_lock_shared_for(std::chrono::nanoseconds) override {
    return try_lock_shared();
  }
  const char* name() const override { return "cpu-mask-probe"; }

  std::vector<cpu_set_t> masks() {
    std::lock_guard<std::mutex> g(mu_);
    return masks_;
  }

 private:
  std::mutex mu_;
  std::vector<cpu_set_t> masks_;
};

// A real-time yield rotates only among threads of one CPU (DESIGN.md §3):
// every sim worker must run on the lowest CPU its caller may use.
TEST(Driver, SimWorkersShareLowestCpuOfCallersMask) {
  KnownCallerSchedule caller;
  CpuMaskProbe probe;
  sim::Machine machine;
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.read_pct = 100;
  cfg.acquires_per_thread = 20;
  run_sim_workload_on(probe, cfg, machine);
  const auto masks = probe.masks();
  ASSERT_EQ(masks.size(), 4u * 20u);
  for (const cpu_set_t& mask : masks) {
    EXPECT_EQ(CPU_COUNT(&mask), 1);
    EXPECT_TRUE(CPU_ISSET(lowest_cpu(caller.mask()), &mask));
  }
}

TEST(Sweep, DefaultThreadCountsCapped) {
  auto counts = default_thread_counts(64);
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1u);
  EXPECT_EQ(counts.back(), 64u);
  for (auto c : counts) EXPECT_LE(c, 64u);
}

TEST(Sweep, DefaultThreadCountsIncludeOddMax) {
  auto counts = default_thread_counts(100);
  EXPECT_EQ(counts.back(), 100u);
}

TEST(Sweep, RunAndFormat) {
  SweepConfig cfg;
  cfg.read_pct = 100;
  cfg.thread_counts = {1, 2};
  cfg.locks = {LockKind::kGoll, LockKind::kCentral};
  cfg.acquires_per_thread = 50;
  cfg.repetitions = 2;
  cfg.mode = Mode::kReal;
  SweepResult result = run_sweep(cfg, /*verbose=*/false);
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_GT(result.at(1, LockKind::kGoll), 0.0);
  EXPECT_GT(result.at(2, LockKind::kCentral), 0.0);
  EXPECT_EQ(result.at(99, LockKind::kGoll), 0.0);  // absent cell

  std::ostringstream os;
  print_series(os, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("threads,GOLL,Central"), std::string::npos);
  EXPECT_NE(text.find("\n1,"), std::string::npos);
  EXPECT_NE(text.find("\n2,"), std::string::npos);
}

TEST(Sweep, PaperIterationScalingRule) {
  SweepConfig high;
  high.read_pct = 95;
  SweepConfig low;
  low.read_pct = 50;
  // §5.1: fewer acquisitions for read percentages of 50% or less.
  EXPECT_GT(high.effective_acquires(), low.effective_acquires());
  SweepConfig forced;
  forced.acquires_per_thread = 123;
  EXPECT_EQ(forced.effective_acquires(), 123u);
}

TEST(Flags, ParseKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--mode=real", "--threads=32", "--verbose"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get("mode", "sim"), "real");
  EXPECT_EQ(f.get_u64("threads", 1), 32u);
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("absent"));
  EXPECT_EQ(f.get("absent", "d"), "d");
  EXPECT_EQ(f.get_u64("absent", 7), 7u);
}

}  // namespace
}  // namespace oll::bench
