// LockStats' lazily published histogram block (locks/lock_stats.hpp,
// DESIGN.md §17): records made before, during and after the block's
// publication must all land, baselines must still subtract, and concurrent
// first records must agree on one block.  check.sh runs this suite under
// TSan, which also checks the publication's acquire/release pairing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "locks/goll_lock.hpp"
#include "locks/lock_stats.hpp"
#include "platform/histogram.hpp"
#include "platform/trace.hpp"

namespace oll {
namespace {

// Spin barrier: releases all `n` parties at once so first records collide.
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

TEST(LazyHistograms, FreshStatsReadAsEmptyHistograms) {
  const std::uint64_t before = lazy_blocks_published();
  LockStats stats(4);
  stats.count_read_fast();
  stats.count_park_outcome(1, 0, /*wait_ns=*/0);  // no park time: no block
  const LockStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.read_fast, 1u);
  EXPECT_EQ(s.parks, 1u);
  EXPECT_TRUE(s.read_acquire.empty());
  EXPECT_TRUE(s.park_wait.empty());
  stats.reset();  // no block to clear: must not allocate one
  EXPECT_EQ(lazy_blocks_published(), before);
}

// Snapshots equal histograms built directly from the same samples: the
// lazy block changes where samples live, not what the snapshot reports.
TEST(LazyHistograms, RecordsMatchReferenceHistograms) {
  constexpr int kThreads = 4;
  LockStats stats(16);
  HistogramSnapshot ref_read, ref_write, ref_wait, ref_timed, ref_opt,
      ref_park;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t v = (i * 2654435761u + t) % 100000;
      ref_read.add(v);
      ref_write.add(v + 1);
      ref_wait.add(v + 2);
      ref_timed.add(v + 3);
      ref_opt.add(v + 4);
      ref_park.add(v + 5);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t v = (i * 2654435761u + t) % 100000;
        stats.record_read_acquire(v);
        stats.record_write_acquire(v + 1);
        stats.record_writer_wait(v + 2);
        stats.record_timed_acquire(v + 3);
        stats.record_opt_read(v + 4);
        stats.count_park_outcome(1, 0, v + 5);
      }
    });
  }
  for (auto& th : threads) th.join();
  const LockStatsSnapshot s = stats.snapshot();
  auto same = [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    for (std::uint32_t i = 0; i < kHistogramBuckets; ++i) {
      if (a.buckets[i] != b.buckets[i]) return false;
    }
    return a.count == b.count && a.sum == b.sum && a.max == b.max;
  };
  EXPECT_TRUE(same(s.read_acquire, ref_read));
  EXPECT_TRUE(same(s.write_acquire, ref_write));
  EXPECT_TRUE(same(s.writer_wait, ref_wait));
  EXPECT_TRUE(same(s.timed_acquire, ref_timed));
  EXPECT_TRUE(same(s.opt_read, ref_opt));
  EXPECT_TRUE(same(s.park_wait, ref_park));
  EXPECT_EQ(s.parks, kThreads * 200u);
  stats.reset();
  const LockStatsSnapshot z = stats.snapshot();
  EXPECT_TRUE(z.read_acquire.empty());
  EXPECT_TRUE(z.park_wait.empty());
  EXPECT_EQ(z.parks, 0u);
}

// Eight threads make their first record at the same instant, many times
// over: every round publishes exactly one block, and no record is lost —
// a record that landed in a losing (freed) block would be missing from
// the exact count and sum.
TEST(LazyHistograms, ConcurrentFirstRecordsPublishExactlyOneBlock) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    LockStats stats(16);
    const std::uint64_t before = lazy_blocks_published();
    StartLine start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        stats.record_read_acquire(static_cast<std::uint64_t>(t) + 1);
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(lazy_blocks_published(), before + 1)
        << "round " << round;
    const LockStatsSnapshot s = stats.snapshot();
    ASSERT_EQ(s.read_acquire.count, static_cast<std::uint64_t>(kThreads));
    ASSERT_EQ(s.read_acquire.sum,
              static_cast<std::uint64_t>(kThreads * (kThreads + 1) / 2));
  }
}

#if OLL_TRACE
// Latency timing switched on while readers run: the first armed records
// race to publish the block mid-run.  At quiescence the histogram must be
// internally exact (bucket total == count, count <= reads), and a second,
// fully timed phase must add exactly one sample per acquisition.
TEST(LazyHistograms, TimingEnabledMidRunIsExactAtQuiescence) {
  constexpr int kThreads = 8;
  constexpr int kPhase2Ops = 500;
  GollOptions o;
  o.max_threads = 16;
  GollLock<> lock(o);
  std::atomic<bool> stop{false};
  std::atomic<int> running{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      running.fetch_add(1, std::memory_order_acq_rel);
      while (!stop.load(std::memory_order_acquire)) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  while (running.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  latency_timing_enable();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  const LockStatsSnapshot s1 = lock.stats();
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : s1.read_acquire.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s1.read_acquire.count);
  EXPECT_GT(s1.read_acquire.count, 0u);
  EXPECT_LE(s1.read_acquire.count, s1.reads());

  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPhase2Ops; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  for (auto& th : threads) th.join();
  latency_timing_disable();
  const LockStatsSnapshot s2 = lock.stats();
  EXPECT_EQ(s2.reads() - s1.reads(),
            static_cast<std::uint64_t>(kThreads * kPhase2Ops));
  EXPECT_EQ(s2.read_acquire.count - s1.read_acquire.count,
            static_cast<std::uint64_t>(kThreads * kPhase2Ops));
}

// reset_stats() baselines (factory adapters) taken before the block exists
// and after it does both subtract to the exact per-phase counts.
TEST(LazyHistograms, ResetStatsBaselinesSubtractAcrossPublication) {
  for (LockKind kind : {LockKind::kGoll, LockKind::kOptBravoGoll,
                        LockKind::kCentral, LockKind::kRoll}) {
    LockFactoryOptions o;
    o.max_threads = 4;
    o.register_lock = false;
    auto lock = make_rwlock(kind, o);
    for (int i = 0; i < 10; ++i) {  // untimed: no block yet
      lock->lock();
      lock->unlock();
    }
    lock->reset_stats();  // baseline with empty histograms
    latency_timing_enable();
    for (int i = 0; i < 30; ++i) {
      lock->lock();
      lock->unlock();
    }
    LockStatsSnapshot s = lock->stats();
    EXPECT_EQ(s.writes(), 30u) << lock_kind_name(kind);
    EXPECT_EQ(s.write_acquire.count, 30u) << lock_kind_name(kind);
    lock->reset_stats();  // baseline with a populated block
    for (int i = 0; i < 7; ++i) {
      lock->lock_shared();
      lock->unlock_shared();
    }
    latency_timing_disable();
    s = lock->stats();
    EXPECT_EQ(s.writes(), 0u) << lock_kind_name(kind);
    EXPECT_EQ(s.write_acquire.count, 0u) << lock_kind_name(kind);
    EXPECT_EQ(s.reads(), 7u) << lock_kind_name(kind);
    EXPECT_EQ(s.read_acquire.count, 7u) << lock_kind_name(kind);
  }
}
#endif  // OLL_TRACE

}  // namespace
}  // namespace oll
