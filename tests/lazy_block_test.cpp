// Pay-for-use blocks (locks/per_thread.hpp, DESIGN.md §17.5): every block a
// lock allocates by its first use instead of at construction must be
// published exactly once when first uses collide, and nothing done through
// a losing block may be lost.  One test per block: the generic helper, the
// metalock queue nodes (cohort and MCS, taken through a fresh GOLL), the
// census slots (census enabled mid-run), the combining slots and the
// reset_stats() baseline.  The histogram block's race test lives in
// lock_stats_test.cpp.  check.sh runs this suite under TSan and UBSan,
// which also checks the publication's acquire/release pairing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "locks/goll_lock.hpp"
#include "locks/per_thread.hpp"
#include "platform/lock_registry.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"

namespace oll {
namespace {

constexpr int kThreads = 8;

// Spin barrier: releases all `n` parties at once so first uses collide.
class StartLine {
 public:
  explicit StartLine(int n) : n_(n) {}
  void arrive_and_wait() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < n_) {
      std::this_thread::yield();
    }
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
};

TEST(LazyBlock, NullUntilFirstUse) {
  const std::uint64_t before = lazy_blocks_published();
  LazyPerThreadSlots<std::uint64_t> slots(4);
  EXPECT_EQ(slots.find(2), nullptr);
  EXPECT_EQ(lazy_blocks_published(), before);
  slots.at(2) = 7;
  EXPECT_EQ(*slots.find(2), 7u);
  EXPECT_EQ(*slots.find(0), 0u);  // published zeroed
  EXPECT_EQ(lazy_blocks_published(), before + 1);
}

// Eight threads make their first write at the same instant, many times
// over: every round publishes one block, and every write is in it.
TEST(LazyBlock, ConcurrentFirstUsesPublishExactlyOneBlock) {
  for (int round = 0; round < 200; ++round) {
    LazyPerThreadSlots<std::uint64_t> slots(64);
    const std::uint64_t before = lazy_blocks_published();
    StartLine start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Take a dense index now, so none is recycled mid-round.
        (void)this_thread_index();
        start.arrive_and_wait();
        slots.local() = static_cast<std::uint64_t>(t) + 1;
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(lazy_blocks_published(), before + 1) << "round " << round;
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < slots.size(); ++i) sum += *slots.find(i);
    ASSERT_EQ(sum, static_cast<std::uint64_t>(kThreads * (kThreads + 1) / 2));
  }
}

// A fresh GOLL is write-held while eight writers start at once; each fails
// CloseIfEmpty, spins out its reopen budget and takes the metalock to
// enqueue, so their first metalock acquisitions race to publish the queue
// nodes.  Exactly one block; then the release hands the lock down the
// whole chain — every writer runs its section once.
void metalock_first_use_race(const MetalockOptions& m) {
  for (int round = 0; round < 20; ++round) {
    GollOptions o;
    o.max_threads = 64;
    o.metalock = m;
    GollLock<> lock(o);
    lock.lock();
    const std::uint64_t before = lazy_blocks_published();
    StartLine start(kThreads);
    std::uint64_t sections = 0;  // guarded by the write lock
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        lock.lock();
        ++sections;
        lock.unlock();
      });
    }
    // write_queued is counted after the enqueue: all eight are queued.
    while (lock.stats().write_queued < kThreads) std::this_thread::yield();
    lock.unlock();
    for (auto& th : threads) th.join();
    ASSERT_EQ(lazy_blocks_published(), before + 1) << "round " << round;
    ASSERT_EQ(sections, static_cast<std::uint64_t>(kThreads));
    const LockStatsSnapshot s = lock.stats();
    ASSERT_EQ(s.write_queued, static_cast<std::uint64_t>(kThreads));
    ASSERT_EQ(s.writes(), static_cast<std::uint64_t>(kThreads) + 1);
    ASSERT_EQ(s.meta_handoffs, s.meta_cohort_hits + s.meta_cross_domain);
  }
}

TEST(LazyMetalockNodes, CohortFirstLocksPublishOneBlock) {
  // 8 cpus, 4 per LLC: two domains, so both cohort levels are in play.
  const Topology topo = Topology::synthetic(8, 1, 4, 4);
  MetalockOptions m;
  m.kind = MetalockKind::kCohort;
  m.topology = &topo;
  metalock_first_use_race(m);
}

TEST(LazyMetalockNodes, McsFirstLocksPublishOneBlock) {
  MetalockOptions m;
  m.kind = MetalockKind::kMcs;
  metalock_first_use_race(m);
}

#if OLL_REGISTRY
// Readers run while the census is switched on under them: their first
// marks race to publish the slots.  Then every reader holds the lock at
// once and the census must see all eight holders — a mark that went to a
// losing block would be missing — and none once they release.
TEST(LazyCensusSlots, EnabledMidRunPublishesOneBlock) {
  ASSERT_FALSE(registry_census_enabled());
  for (int round = 0; round < 10; ++round) {
    LockFactoryOptions o;
    o.max_threads = 64;
    o.register_lock = false;
    auto lock = make_rwlock(LockKind::kGoll, o);
    const ContentionCensus* census = lock->census();
    ASSERT_NE(census, nullptr);
    const std::uint64_t before = lazy_blocks_published();
    std::atomic<int> phase{0};
    StartLine running(kThreads + 1);
    StartLine holding(kThreads + 1);
    StartLine release(kThreads + 1);
    std::atomic<std::uint64_t> ops{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::uint64_t n = 0;
        running.arrive_and_wait();
        while (phase.load(std::memory_order_acquire) == 0) {
          lock->lock_shared();
          lock->unlock_shared();
          ++n;
        }
        lock->lock_shared();
        ++n;
        holding.arrive_and_wait();
        release.arrive_and_wait();
        lock->unlock_shared();
        ops.fetch_add(n, std::memory_order_relaxed);
      });
    }
    running.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(lazy_blocks_published(), before);  // census off: no marks
    registry_census_enable();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    phase.store(1, std::memory_order_release);
    holding.arrive_and_wait();
    const CensusSnapshot held = census->snapshot(0);
    release.arrive_and_wait();
    for (auto& th : threads) th.join();
    const CensusSnapshot idle = census->snapshot(0);
    registry_census_disable();
    ASSERT_EQ(lazy_blocks_published(), before + 1) << "round " << round;
    EXPECT_EQ(held.holding_readers, static_cast<std::uint32_t>(kThreads));
    EXPECT_EQ(held.queue_depth(), 0u);
    EXPECT_EQ(idle.holding_readers, 0u);
    EXPECT_EQ(idle.queue_depth(), 0u);
    EXPECT_EQ(lock->stats().reads(), ops.load(std::memory_order_relaxed));
  }
}
#endif  // OLL_REGISTRY

// Eight delegating writers start at once against a write-held combining
// GOLL: their first publishes race to allocate the combining slots.  The
// TATAS metalock keeps no per-thread nodes, so the count sees the pool's
// block alone.  Every closure runs exactly once, either combined by a
// holder or by its own thread after a fallback acquire.
void add_one(void* ctx) { ++*static_cast<std::uint64_t*>(ctx); }

TEST(LazyCombineSlots, FirstDelegationsPublishOneBlock) {
  for (int round = 0; round < 20; ++round) {
    GollOptions o;
    o.max_threads = 64;
    o.combine = true;
    o.metalock.kind = MetalockKind::kTatas;
    GollLock<> lock(o);
    lock.lock();
    const std::uint64_t before = lazy_blocks_published();
    StartLine start(kThreads);
    std::uint64_t sections = 0;  // guarded by the write lock
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        lock.with_write(&add_one, &sections);
      });
    }
    // At least one closure is published before the holder lets go.
    while (!lock.combining_pending()) std::this_thread::yield();
    lock.unlock();
    for (auto& th : threads) th.join();
    ASSERT_EQ(lazy_blocks_published(), before + 1) << "round " << round;
    ASSERT_EQ(sections, static_cast<std::uint64_t>(kThreads));
    const LockStatsSnapshot s = lock.stats();
    ASSERT_EQ(s.combined_ops, s.combine_handoffs_saved);
    ASSERT_EQ(s.writes() + s.combine_handoffs_saved,
              static_cast<std::uint64_t>(kThreads) + 1);
  }
}

// reset_stats() is a quiescent operation (one caller at a time), so its
// baseline's first use is sequential: rebasing before the first snapshot
// and after it must both leave exact per-phase counts, and only the first
// reset allocates.
void some_ops(AnyRwLock& l, int reads, int writes) {
  for (int i = 0; i < reads; ++i) {
    l.lock_shared();
    l.unlock_shared();
  }
  for (int i = 0; i < writes; ++i) {
    l.lock();
    l.unlock();
  }
  if (l.supports_optimistic()) {
    const std::uint64_t s = l.opt_read_begin();
    EXPECT_TRUE(l.opt_read_validate(s));
  }
}

TEST(LazyStatsBaseline, ResetBeforeAndAfterFirstSnapshot) {
  for (LockKind kind : all_lock_kinds()) {
    LockFactoryOptions o;
    o.max_threads = 4;
    o.register_lock = false;
    auto twin = make_rwlock(kind, o);  // never rebased: the reference
    some_ops(*twin, 3, 2);
    const LockStatsSnapshot ref = twin->stats();

    // Rebased before any snapshot was taken.
    auto early = make_rwlock(kind, o);
    std::uint64_t before = lazy_blocks_published();
    early->reset_stats();
    EXPECT_EQ(lazy_blocks_published(), before + 1) << lock_kind_name(kind);
    some_ops(*early, 3, 2);
    LockStatsSnapshot s = early->stats();
    EXPECT_EQ(s.reads(), ref.reads()) << lock_kind_name(kind);
    EXPECT_EQ(s.writes(), ref.writes()) << lock_kind_name(kind);
    EXPECT_EQ(s.opt_reads, ref.opt_reads) << lock_kind_name(kind);

    // Rebased after a first snapshot of a phase: only the next phase shows.
    auto late = make_rwlock(kind, o);
    some_ops(*late, 5, 4);
    before = lazy_blocks_published();
    s = late->stats();
    EXPECT_EQ(lazy_blocks_published(), before) << lock_kind_name(kind);
    late->reset_stats();
    some_ops(*late, 3, 2);
    s = late->stats();
    EXPECT_EQ(s.reads(), ref.reads()) << lock_kind_name(kind);
    EXPECT_EQ(s.writes(), ref.writes()) << lock_kind_name(kind);
    EXPECT_EQ(s.opt_reads, ref.opt_reads) << lock_kind_name(kind);
    late->reset_stats();  // the block exists: no second one
    EXPECT_EQ(lazy_blocks_published(), before + 1) << lock_kind_name(kind);
    s = late->stats();
    EXPECT_EQ(s.reads(), 0u) << lock_kind_name(kind);
    EXPECT_EQ(s.writes(), 0u) << lock_kind_name(kind);
    EXPECT_EQ(s.opt_reads, 0u) << lock_kind_name(kind);
  }
}

}  // namespace
}  // namespace oll
