// VersionedRwLock / optimistic read mode (DESIGN.md §13): the wrapper's
// stamp protocol, the OptGuard and RwProtected::read_optimistic surfaces,
// the retry/fallback policy, stats plumbing — and the PR's acceptance
// evidence: under the simulated coherence model an uncontended optimistic
// read performs ZERO shared-line stores and zero RMWs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "core/guards.hpp"
#include "core/rw_protected.hpp"
#include "locks/central_rwlock.hpp"
#include "locks/goll_lock.hpp"
#include "locks/versioned_rwlock.hpp"
#include "platform/fault.hpp"
#include "platform/trace.hpp"
#include "sim/context.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace oll {
namespace {

using VCentral = VersionedRwLock<CentralRwLock<>>;

TEST(VersionedRwLock, SatisfiesOptimisticConcept) {
  static_assert(OptimisticSharedLockable<VCentral>);
  static_assert(OptimisticSharedLockable<VersionedRwLock<GollLock<>>>);
  // The erased surface satisfies it too (defaults), so generic retry loops
  // over AnyRwLock compile and go straight to the pessimistic path for
  // kinds without the mode.
  static_assert(OptimisticSharedLockable<AnyRwLock>);
  static_assert(!OptimisticSharedLockable<CentralRwLock<>>);
}

TEST(VersionedRwLock, StampProtocolBasics) {
  VCentral lock;
  const std::uint64_t s1 = lock.opt_read_begin();
  ASSERT_NE(s1, kInvalidOptStamp);
  EXPECT_TRUE(lock.opt_read_validate(s1));

  // A writer bumps the stamp twice (odd while held, even after release).
  const std::uint64_t s2 = lock.opt_read_begin();
  lock.lock();
  EXPECT_EQ(lock.opt_read_begin(), kInvalidOptStamp);  // odd: dead on arrival
  lock.unlock();
  EXPECT_FALSE(lock.opt_read_validate(s2));

  // Readers (pessimistic or optimistic) never perturb the stamp.
  const std::uint64_t s3 = lock.opt_read_begin();
  lock.lock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.opt_read_validate(s3));
  EXPECT_EQ(lock.opt_read_begin(), s3);
}

TEST(VersionedRwLock, TimedAndTryWritersBumpTheStamp) {
  // Interop with the timed-acquisition surface (DESIGN.md §11): every
  // writer path must run the stamp protocol, not just lock()/unlock().
  VCentral lock;
  const std::uint64_t s1 = lock.opt_read_begin();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.opt_read_validate(s1));

  const std::uint64_t s2 = lock.opt_read_begin();
  ASSERT_TRUE(lock.try_lock_for(std::chrono::milliseconds(50)));
  lock.unlock();
  EXPECT_FALSE(lock.opt_read_validate(s2));

  // Shared paths must NOT bump it.
  const std::uint64_t s3 = lock.opt_read_begin();
  ASSERT_TRUE(lock.try_lock_shared());
  lock.unlock_shared();
  ASSERT_TRUE(lock.try_lock_shared_for(std::chrono::milliseconds(50)));
  lock.unlock_shared();
  EXPECT_TRUE(lock.opt_read_validate(s3));
}

TEST(VersionedRwLock, StatsCountAndMerge) {
  VCentral lock;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t s = lock.opt_read_begin();
    EXPECT_TRUE(lock.opt_read_validate(s));
  }
  const std::uint64_t failed = lock.opt_read_begin();
  lock.lock();
  lock.unlock();
  EXPECT_FALSE(lock.opt_read_validate(failed));
  lock.lock_shared();
  lock.unlock_shared();
  lock.count_opt_fallback();

  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.opt_reads, 10u);
  EXPECT_EQ(s.opt_validation_failures, 1u);
  EXPECT_EQ(s.opt_fallbacks, 1u);
  // Merged from the underlying lock: the pessimistic traffic.
  EXPECT_EQ(s.writes(), 1u);
  EXPECT_EQ(s.reads(), 1u);
}

TEST(VersionedRwLock, InvalidBeginCountsOnceNotTwice) {
  VCentral lock;
  lock.lock();
  const std::uint64_t s = lock.opt_read_begin();  // counted here
  EXPECT_EQ(s, kInvalidOptStamp);
  EXPECT_FALSE(lock.opt_read_validate(s));  // early-out: not counted again
  lock.unlock();
  EXPECT_EQ(lock.stats().opt_validation_failures, 1u);
}

TEST(OptGuard, ValidateAndRestart) {
  VCentral lock;
  OptGuard<VCentral> g(lock);
  ASSERT_TRUE(g.started());
  EXPECT_TRUE(g.validate());

  OptGuard<VCentral> g2(lock);
  lock.lock();
  lock.unlock();
  EXPECT_FALSE(g2.validate());
  g2.restart();
  ASSERT_TRUE(g2.started());
  EXPECT_TRUE(g2.validate());
}

TEST(OptGuard, WorksOverErasedSurface) {
  // AnyRwLock's default optimistic surface: a kind without the mode begins
  // dead-on-arrival, so a generic guard loop immediately goes pessimistic.
  auto plain = make_rwlock(LockKind::kGoll);
  EXPECT_FALSE(plain->supports_optimistic());
  OptGuard<AnyRwLock> dead(*plain);
  EXPECT_FALSE(dead.started());
  EXPECT_FALSE(dead.validate());
  EXPECT_EQ(plain->opt_max_retries(), 0u);

  auto opt = make_rwlock(LockKind::kOptGoll);
  EXPECT_TRUE(opt->supports_optimistic());
  OptGuard<AnyRwLock> live(*opt);
  ASSERT_TRUE(live.started());
  EXPECT_TRUE(live.validate());
}

TEST(RwProtected, ReadOptimisticReturnsValueAndCounts) {
  RwProtected<int, VCentral> box(41);
  box.write([](int& v) { v = 42; });
  const int got = box.read_optimistic([](const int& v) { return v; });
  EXPECT_EQ(got, 42);
  EXPECT_GE(box.mutex().stats().opt_reads, 1u);
  EXPECT_EQ(box.mutex().stats().opt_fallbacks, 0u);
  // void-returning closures compile and validate too.
  int copy = 0;
  box.read_optimistic([&](const int& v) { copy = v; });
  EXPECT_EQ(copy, 42);
}

TEST(RwProtected, ReadOptimisticRetriesThenFallsBack) {
  // A writer intervenes in every optimistic window: after the retry budget
  // the call must complete pessimistically (under lock_shared) and count
  // exactly one fallback.  The interfering closure runs lock()/unlock()
  // while NO lock is held (optimistic sections are lock-free); it stops
  // interfering once the budget is spent so the pessimistic pass cannot
  // self-deadlock.
  RwProtected<int, VCentral> box(7);
  const std::uint32_t attempts = box.mutex().opt_max_retries() + 1;
  std::uint32_t calls = 0;
  const int got = box.read_optimistic([&](const int& v) {
    if (++calls <= attempts) {
      box.mutex().lock();
      box.mutex().unlock();
    }
    return v;
  });
  EXPECT_EQ(got, 7);
  EXPECT_EQ(calls, attempts + 1);  // every attempt + the pessimistic pass
  const LockStatsSnapshot s = box.mutex().stats();
  EXPECT_EQ(s.opt_fallbacks, 1u);
  EXPECT_EQ(s.opt_validation_failures, attempts);
  EXPECT_EQ(s.opt_reads, 0u);
}

TEST(RwProtected, ReadOptimisticOnPlainLockIsJustRead) {
  // Statically degrades: no optimistic surface, no counters, same result.
  RwProtected<int, CentralRwLock<>> box(9);
  EXPECT_EQ(box.read_optimistic([](const int& v) { return v; }), 9);
}

TEST(VersionedRwLock, ConcurrentOptimisticReadersSeeConsistentPairs) {
  // The payload follows the documented copy discipline: optimistic windows
  // read concurrently-mutable members as relaxed atomics (the loads race
  // with writers by design; validation discards torn results).
  struct Pair {
    std::atomic<std::uint64_t> first{0};
    std::atomic<std::uint64_t> second{0};
  };
  RwProtected<Pair, VCentral> box;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto pair = box.read_optimistic([](const Pair& p) {
          const std::uint64_t a = p.first.load(std::memory_order_relaxed);
          const std::uint64_t b = p.second.load(std::memory_order_relaxed);
          return std::make_pair(a, b);
        });
        if (pair.first != pair.second) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 5000; ++i) {
    box.write([](Pair& p) {
      p.first.store(p.first.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      std::this_thread::yield();
      p.second.store(p.second.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    });
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(inconsistent.load(), 0u);
}

// --- the acceptance evidence ----------------------------------------------

// Under the simulated coherence model every M::Atomic access is charged to
// the per-thread OpCounters.  An uncontended optimistic read must charge
// two loads and NOTHING else: no stores, no RMWs — the zero-shared-line
// read path the mode exists for.  (LockStats/tracing live on private
// plain-atomic lines the model does not instrument, mirroring their cost
// class on real hardware: private, never contended.)
TEST(VersionedRwLockSim, UncontendedOptimisticReadIsStoreFree) {
  auto machine = std::make_unique<sim::Machine>();
  VersionedRwLock<CentralRwLock<sim::SimMemory>, sim::SimMemory> lock;
  sim::ThreadGuard guard(*machine, 0);
  // The attached context accumulates the counters locally and deposits at
  // detach; snapshot it directly for live deltas.
  sim::ThreadContext* ctx = sim::ThreadContext::current();
  ASSERT_NE(ctx, nullptr);

  // Warm the version line into this thread's cache, then measure.
  const std::uint64_t warm = lock.opt_read_begin();
  ASSERT_TRUE(lock.opt_read_validate(warm));
  const sim::OpCounters before = ctx->counters();
  constexpr int kReads = 100;
  for (int i = 0; i < kReads; ++i) {
    const std::uint64_t s = lock.opt_read_begin();
    ASSERT_NE(s, kInvalidOptStamp);
    ASSERT_TRUE(lock.opt_read_validate(s));
  }
  const sim::OpCounters after = ctx->counters();
  EXPECT_EQ(after.stores - before.stores, 0u);
  EXPECT_EQ(after.rmws - before.rmws, 0u);
  EXPECT_EQ(after.loads - before.loads, 2u * kReads);

  // Contrast: the wrapped pessimistic read path does perform RMWs.
  const sim::OpCounters p0 = ctx->counters();
  lock.lock_shared();
  lock.unlock_shared();
  const sim::OpCounters p1 = ctx->counters();
  EXPECT_GT(p1.rmws - p0.rmws, 0u);
}

// Same evidence through the factory's erased surface for every opt-* kind:
// the adapter virtuals must not reintroduce shared stores.
TEST(VersionedRwLockSim, AllOptKindsStoreFreeThroughAnyRwLock) {
  for (LockKind kind : opt_lock_kinds()) {
    auto machine = std::make_unique<sim::Machine>();
    LockFactoryOptions o;
    o.max_threads = 8;
    auto lock = make_rwlock<sim::SimMemory>(kind, o);
    ASSERT_NE(lock, nullptr);
    sim::ThreadGuard guard(*machine, 0);
    sim::ThreadContext* ctx = sim::ThreadContext::current();
    ASSERT_NE(ctx, nullptr);
    const std::uint64_t warm = lock->opt_read_begin();
    ASSERT_TRUE(lock->opt_read_validate(warm)) << lock->name();
    const sim::OpCounters before = ctx->counters();
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t s = lock->opt_read_begin();
      ASSERT_TRUE(lock->opt_read_validate(s)) << lock->name();
    }
    const sim::OpCounters after = ctx->counters();
    EXPECT_EQ(after.stores - before.stores, 0u) << lock->name();
    EXPECT_EQ(after.rmws - before.rmws, 0u) << lock->name();
  }
}

// --- exact counters through the factory ------------------------------------
//
// The optimistic layer counts into the lock it wraps (DESIGN.md §13).  A
// fixed single-threaded script must leave exactly the counters it left
// when the layer kept its own LockStats: the literals below are what that
// layout produced for each opt-* kind.

// Every scalar counter of a snapshot, in declaration order (C-SNZI last).
using Counters = std::array<std::uint64_t, 32>;
Counters counters_of(const LockStatsSnapshot& s) {
  return {s.read_fast,
          s.read_queued,
          s.write_fast,
          s.write_queued,
          s.read_bias,
          s.bias_revoke,
          s.meta_handoffs,
          s.meta_cohort_hits,
          s.meta_cross_domain,
          s.wake_cohort_hits,
          s.wake_cross_domain,
          s.read_timeouts,
          s.write_timeouts,
          s.read_abandons,
          s.write_abandons,
          s.revoke_timeouts,
          s.opt_reads,
          s.opt_validation_failures,
          s.opt_fallbacks,
          s.combined_ops,
          s.combine_batches,
          s.combine_handoffs_saved,
          s.parks,
          s.unparks,
          s.spurious_wakes,
          s.csnzi.root_reads,
          s.csnzi.direct_arrivals,
          s.csnzi.tree_arrivals,
          s.csnzi.sticky_arrivals,
          s.csnzi.root_cas_failures,
          s.csnzi.root_propagations,
          s.csnzi.redundant_undos};
}

// Validation success and failure (at validate and at begin), a fallback,
// pessimistic reads and writes, try paths.
void run_opt_script(AnyRwLock& l) {
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t s = l.opt_read_begin();
    ASSERT_TRUE(l.opt_read_validate(s));
  }
  const std::uint64_t stale = l.opt_read_begin();
  l.lock();
  l.unlock();
  ASSERT_FALSE(l.opt_read_validate(stale));
  l.lock();
  const std::uint64_t dead = l.opt_read_begin();
  ASSERT_EQ(dead, kInvalidOptStamp);
  ASSERT_FALSE(l.opt_read_validate(dead));
  l.unlock();
  l.count_opt_fallback();
  for (int i = 0; i < 3; ++i) {
    l.lock_shared();
    l.unlock_shared();
  }
  for (int i = 0; i < 2; ++i) {
    l.lock();
    l.unlock();
  }
  ASSERT_TRUE(l.try_lock());
  l.unlock();
  ASSERT_TRUE(l.try_lock_shared());
  l.unlock_shared();
  ASSERT_TRUE(l.try_lock_for(std::chrono::milliseconds(50)));
  l.unlock();
  ASSERT_TRUE(l.try_lock_shared_for(std::chrono::milliseconds(50)));
  l.unlock_shared();
}

std::unique_ptr<AnyRwLock> script_lock(LockKind kind) {
  LockFactoryOptions o;
  o.max_threads = 4;
  o.register_lock = false;
  return make_rwlock(kind, o);
}

TEST(VersionedExact, ScriptedCountersMatchLiterals) {
  const std::pair<LockKind, Counters> expected[] = {
      // GOLL's try_lock/try_lock_shared count nothing; its C-SNZI takes
      // every arrival directly at the root.
      {LockKind::kOptGoll, {4, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            5, 2, 1, 0, 0, 0, 0, 0, 0, 5, 5, 0, 0, 0, 0, 0}},
      // BRAVO reports its own counters only (no C-SNZI mix); the first
      // write revokes the bias armed at construction.
      {LockKind::kOptBravoGoll, {5, 0, 6, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                 0, 5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                 0, 0}},
      {LockKind::kOptCentral, {3, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                               5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                               0}},
  };
  for (const auto& [kind, want] : expected) {
    auto lock = script_lock(kind);
    run_opt_script(*lock);
    const Counters got = counters_of(lock->stats());
    EXPECT_EQ(got, want) << lock_kind_name(kind);
  }
}

#if OLL_TRACE
// Deterministic trace clock for the timing check below: +10 per reading.
std::uint64_t g_opt_now = 0;
std::uint64_t opt_test_clock() { return g_opt_now += 10; }

std::size_t count_events(const TraceDump& d, TraceEventType type,
                         const void* obj) {
  std::size_t n = 0;
  for (const TraceRecord& r : d.records) {
    if (r.type == type && r.obj == obj) ++n;
  }
  return n;
}

// With tracing and timing on, every optimistic window still emits its
// begin/end events and records one opt_read sample — also for two
// overlapping windows on two latches opened by one thread (hand-over-hand
// coupling), each timed from its own begin.
TEST(VersionedExact, TimingRecordsEveryWindowIncludingOverlaps) {
  for (LockKind kind : opt_lock_kinds()) {
    auto a = script_lock(kind);
    auto b = script_lock(kind);
    g_opt_now = 0;
    trace_set_clock(&opt_test_clock);
    trace_enable();
    latency_timing_enable();
    // Clock readings: begin a = 10, begin b = 20, end b = 30, end a = 40.
    const std::uint64_t sa = a->opt_read_begin();
    const std::uint64_t sb = b->opt_read_begin();
    EXPECT_TRUE(b->opt_read_validate(sb));
    EXPECT_TRUE(a->opt_read_validate(sa));
    // A failed window: end event, no sample.
    const std::uint64_t stale = a->opt_read_begin();
    a->lock();
    a->unlock();
    EXPECT_FALSE(a->opt_read_validate(stale));
    // A window abandoned while timing is on leaves its entry behind; once
    // timing is off, the next window on that lock records no sample.
    (void)a->opt_read_begin();
    latency_timing_disable();
    EXPECT_TRUE(a->opt_read_validate(a->opt_read_begin()));
    trace_disable();
    trace_set_clock(nullptr);
    const TraceDump dump = trace_drain();

    const LockStatsSnapshot sa_stats = a->stats();
    const LockStatsSnapshot sb_stats = b->stats();
    EXPECT_EQ(sa_stats.opt_read.count, 1u) << lock_kind_name(kind);
    EXPECT_EQ(sa_stats.opt_read.sum, 30u) << lock_kind_name(kind);
    EXPECT_EQ(sb_stats.opt_read.count, 1u) << lock_kind_name(kind);
    EXPECT_EQ(sb_stats.opt_read.sum, 10u) << lock_kind_name(kind);
    EXPECT_EQ(sa_stats.opt_reads, 2u);
    EXPECT_EQ(sa_stats.opt_validation_failures, 1u);

    // Trace records name the VersionedRwLock inside each adapter; find it
    // as the object of the lock's begin events.
    const void* obj_a = nullptr;
    const void* obj_b = nullptr;
    for (const TraceRecord& r : dump.records) {
      if (r.type != TraceEventType::kOptReadBegin) continue;
      if (r.ts == 10 || r.ts == 50) obj_a = r.obj;
      if (r.ts == 20) obj_b = r.obj;
    }
    ASSERT_NE(obj_a, nullptr) << lock_kind_name(kind);
    ASSERT_NE(obj_b, nullptr) << lock_kind_name(kind);
    EXPECT_NE(obj_a, obj_b);
    EXPECT_EQ(count_events(dump, TraceEventType::kOptReadBegin, obj_a), 4u);
    EXPECT_EQ(count_events(dump, TraceEventType::kOptReadEnd, obj_a), 3u);
    EXPECT_EQ(count_events(dump, TraceEventType::kOptValidationFail, obj_a),
              1u);
    EXPECT_EQ(count_events(dump, TraceEventType::kOptReadBegin, obj_b), 1u);
    EXPECT_EQ(count_events(dump, TraceEventType::kOptReadEnd, obj_b), 1u);
  }
}
#endif  // OLL_TRACE

}  // namespace
}  // namespace oll
