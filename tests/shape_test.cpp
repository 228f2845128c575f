// Reproduction shape tests: assert the paper's §5.2 qualitative claims on
// reduced simulated sweeps, so "does this repo still reproduce Figure 5?"
// is a ctest question, not a manual eyeballing exercise.
//
// Margins are deliberately loose (2x-ish) — these guard the *shape* (who
// wins, what scales, where the cliff is), not exact ratios.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "harness/driver.hpp"
#include "harness/workload.hpp"

namespace oll::bench {
namespace {

double tp(LockKind kind, std::uint32_t threads, std::uint32_t read_pct,
          std::uint64_t acquires = 400) {
  WorkloadConfig w;
  w.threads = threads;
  w.read_pct = read_pct;
  w.acquires_per_thread = acquires;
  return run_workload(kind, w, Mode::kSim).throughput();
}

// §5.2 / Fig 5(a): "all the OLL locks scale linearly as more threads are
// added" — throughput at 64 threads must be many times the 8-thread value.
TEST(Shape, Fig5a_OllLocksScaleOnChip) {
  for (LockKind kind : {LockKind::kGoll, LockKind::kFoll, LockKind::kRoll}) {
    const double t8 = tp(kind, 8, 100);
    const double t64 = tp(kind, 64, 100);
    EXPECT_GT(t64, 3.0 * t8) << lock_kind_name(kind);
  }
}

// §5.2 / Fig 5(a): "unaffected by the change in communication cost at 64
// threads" — OLL throughput at 128 threads stays within ~2x of 64.
TEST(Shape, Fig5a_OllLocksSurviveChipBoundary) {
  for (LockKind kind : {LockKind::kGoll, LockKind::kFoll, LockKind::kRoll}) {
    const double t64 = tp(kind, 64, 100);
    const double t128 = tp(kind, 128, 100);
    EXPECT_GT(t128, 0.5 * t64) << lock_kind_name(kind);
  }
}

// §5.2 / Fig 5(a): at 256 threads the OLL locks beat KSUH by orders of
// magnitude (paper: ~100x; we assert >= 10x, see EXPERIMENTS.md on why the
// model is conservative here).
TEST(Shape, Fig5a_OllLocksDominateKsuhAtScale) {
  const double ksuh = tp(LockKind::kKsuh, 256, 100);
  for (LockKind kind : {LockKind::kGoll, LockKind::kFoll, LockKind::kRoll}) {
    EXPECT_GT(tp(kind, 256, 100), 10.0 * ksuh) << lock_kind_name(kind);
  }
}

// §5.2 / Fig 5(a): KSUH "is able to offer slight performance improvements up
// until 64 threads, after which ... drop"; Solaris-like decreases gradually.
TEST(Shape, Fig5a_BaselinesDoNotScale) {
  const double ksuh64 = tp(LockKind::kKsuh, 64, 100);
  const double ksuh128 = tp(LockKind::kKsuh, 128, 100);
  EXPECT_LT(ksuh128, ksuh64);  // off-chip drop
  const double sol8 = tp(LockKind::kSolarisLike, 8, 100);
  const double sol256 = tp(LockKind::kSolarisLike, 256, 100);
  EXPECT_LT(sol256, sol8);  // gradual decay
}

// §5.2 / Fig 5(b): at 99% reads FOLL and ROLL "outperform the KSUH lock all
// the way to 256 threads", and ROLL holds up better than FOLL off-chip.
TEST(Shape, Fig5b_FollRollBeatKsuh) {
  for (std::uint32_t threads : {64u, 256u}) {
    const double ksuh = tp(LockKind::kKsuh, threads, 99);
    EXPECT_GT(tp(LockKind::kFoll, threads, 99), ksuh) << threads;
    EXPECT_GT(tp(LockKind::kRoll, threads, 99), ksuh) << threads;
  }
}

TEST(Shape, Fig5b_RollRetainsMoreThanFollOffChip) {
  const double foll64 = tp(LockKind::kFoll, 64, 99);
  const double foll256 = tp(LockKind::kFoll, 256, 99);
  const double roll64 = tp(LockKind::kRoll, 64, 99);
  const double roll256 = tp(LockKind::kRoll, 256, 99);
  // Relative retention: ROLL keeps a larger fraction of its on-chip
  // performance than FOLL does (the paper's headline for ROLL).
  EXPECT_GT(roll256 / roll64, foll256 / foll64);
}

// §5.2 / Fig 5(c): at 95% reads GOLL "behaves almost exactly like the
// Solaris-like lock" (within ~2x either way at scale).  The claim is about
// the paper's writer path, so GOLL runs with the paper-faithful
// test-and-test-and-set metalock (--metalock=tatas, DESIGN.md §10).  The
// default cohort metalock exists to remove exactly the writer-path cost that
// makes GOLL degenerate here, and does: at this point it runs ~4x above
// Solaris-like (EXPERIMENTS.md, Figure 5(c)), so it is not held to the claim.
TEST(Shape, Fig5c_GollDegeneratesToSolaris) {
  WorkloadConfig paper_goll;
  paper_goll.threads = 128;
  paper_goll.read_pct = 95;
  paper_goll.acquires_per_thread = 400;
  paper_goll.metalock = MetalockKind::kTatas;
  const double goll =
      run_workload(LockKind::kGoll, paper_goll, Mode::kSim).throughput();
  const double solaris = tp(LockKind::kSolarisLike, 128, 95);
  EXPECT_LT(goll, 2.5 * solaris);
  EXPECT_GT(goll, solaris / 2.5);
}

// §5.2 / Fig 5(f): at 0% reads every lock holds near-constant throughput
// within a region; check flatness across the on-chip range.
TEST(Shape, Fig5f_WriteOnlyPlateaus) {
  for (LockKind kind : figure5_lock_kinds()) {
    const double t16 = tp(kind, 16, 0, 200);
    const double t64 = tp(kind, 64, 0, 200);
    EXPECT_GT(t64, 0.4 * t16) << lock_kind_name(kind);
    EXPECT_LT(t64, 2.5 * t16) << lock_kind_name(kind);
  }
}

// Uncontended sanity in the model: at 1 thread all five locks are within an
// order of magnitude (no lock pays pathological single-thread overhead).
TEST(Shape, SingleThreadOverheadsComparable) {
  double lo = 1e300, hi = 0;
  for (LockKind kind : figure5_lock_kinds()) {
    const double v = tp(kind, 1, 100, 2000);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(hi / lo, 10.0);
}

}  // namespace
}  // namespace oll::bench
