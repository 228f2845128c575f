// Fairness-property tests: the observable difference between FOLL (strict
// FIFO — §4.2) and ROLL (reader preference — §4.3), writer liveness under
// reader storms for the FIFO locks, and the GOLL queue policy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "lock_test_utils.hpp"
#include "locks/foll_lock.hpp"
#include "locks/goll_lock.hpp"
#include "locks/ksuh_rwlock.hpp"
#include "locks/mcs_rwlock.hpp"
#include "locks/roll_lock.hpp"
#include "platform/rng.hpp"
#include "platform/spin.hpp"

namespace oll {
namespace {

using test::eventually;

// Under a continuous stream of readers, a FIFO lock must admit a writer in
// bounded time: once the writer enqueues, only readers already ahead of it
// may pass.  We count how many read sections complete between the writer's
// request and its acquisition.
template <typename Lock>
std::uint64_t reads_overtaking_one_writer(Lock& lock, int reader_threads) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<bool> writer_requesting{false};
  std::atomic<std::uint64_t> reads_at_request{0};
  std::atomic<std::uint64_t> reads_at_acquire{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < reader_threads; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        lock.lock_shared();
        reads_done.fetch_add(1, std::memory_order_relaxed);
        lock.unlock_shared();
      }
    });
  }
  // Let the reader storm reach steady state.
  spin_until([&] { return reads_done.load() > 10000; });

  std::thread writer([&] {
    reads_at_request.store(reads_done.load());
    writer_requesting.store(true);
    lock.lock();
    reads_at_acquire.store(reads_done.load());
    lock.unlock();
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  return reads_at_acquire.load() - reads_at_request.load();
}

TEST(Fairness, FollWriterNotStarvedByReaderStorm) {
  FollLock<> lock;
  // FIFO: the writer waits only for readers that arrived before it (plus a
  // small race window).  A generous bound still distinguishes FIFO from
  // actual starvation (which would run into the millions).
  const std::uint64_t overtakes = reads_overtaking_one_writer(lock, 4);
  EXPECT_LT(overtakes, 50000u) << "writer appears starved";
}

TEST(Fairness, KsuhWriterNotStarvedByReaderStorm) {
  KsuhRwLock<> lock;
  const std::uint64_t overtakes = reads_overtaking_one_writer(lock, 4);
  EXPECT_LT(overtakes, 50000u) << "writer appears starved";
}

TEST(Fairness, McsRwWriterNotStarvedByReaderStorm) {
  McsRwLock<> lock;
  const std::uint64_t overtakes = reads_overtaking_one_writer(lock, 4);
  EXPECT_LT(overtakes, 50000u) << "writer appears starved";
}

TEST(Fairness, RollWriterEventuallyAcquiresWhenReadersStop) {
  // ROLL deliberately lets readers overtake; we only require liveness once
  // the reader storm ends (reader preference, not writer starvation proof).
  RollLock<> lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        lock.lock_shared();
        reads_done.fetch_add(1, std::memory_order_relaxed);
        lock.unlock_shared();
      }
    });
  }
  spin_until([&] { return reads_done.load() > 5000; });
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    lock.lock();
    writer_done.store(true);
    lock.unlock();
  });
  // Stop the storm; the writer must now get through.
  stop.store(true);
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(Fairness, RollReaderJoinsAheadOfQueuedWriterFollDoesNot) {
  // Differential scenario: [active W0][waiting readers][waiting W1], then a
  // late reader arrives.  In ROLL the late reader finishes with the first
  // reader group, i.e. BEFORE W1; in FOLL it must queue after W1.  We
  // detect the order via which happens first: the late reader's section or
  // W1's.  (Statistical: repeat the scenario several times.)
  int roll_overtakes = 0;
  for (int round = 0; round < 10; ++round) {
    RollLock<> lock;
    lock.lock();  // W0
    std::atomic<int> stage{0};
    std::thread r1([&] {
      lock.lock_shared();
      lock.unlock_shared();
    });
    for (int i = 0; i < 2000; ++i) std::this_thread::yield();
    std::thread w1([&] {
      lock.lock();
      stage.fetch_add(1);  // W1 ran
      lock.unlock();
    });
    for (int i = 0; i < 2000; ++i) std::this_thread::yield();
    std::atomic<int> late_saw_stage{-1};
    std::thread r2([&] {
      lock.lock_shared();
      late_saw_stage.store(stage.load());
      lock.unlock_shared();
    });
    for (int i = 0; i < 2000; ++i) std::this_thread::yield();
    lock.unlock();  // release W0
    r1.join();
    w1.join();
    r2.join();
    if (late_saw_stage.load() == 0) ++roll_overtakes;  // ran before W1
  }
  // Reader preference should win the race most of the time.
  EXPECT_GE(roll_overtakes, 5);
}

TEST(Fairness, GollHandsWholeReaderGroupOverWriter) {
  // With the Solaris policy, readers queued while a writer holds the lock
  // coalesce into one group even when another writer waits between them.
  // Each step waits until the previous waiter is in the queue: GOLL counts
  // read_queued, and the timed writer path counts write_queued, only after
  // the enqueue.
  GollLock<> lock;
  lock.lock();  // W0
  std::atomic<int> readers_in{0};
  std::atomic<bool> w1_done{false};
  std::atomic<bool> r1_saw_r2{false};
  std::atomic<bool> r2_saw_w1{true};
  std::thread r1([&] {
    lock.lock_shared();
    readers_in.fetch_add(1);
    // Held until r2 joins; a lock that queued r2 behind w1 leaves this at
    // the deadline instead of deadlocking against w1.
    r1_saw_r2.store(eventually([&] { return readers_in.load() >= 2; }));
    lock.unlock_shared();
  });
  EXPECT_TRUE(eventually([&] { return lock.stats().read_queued == 1; }));
  bool w1_granted = false;
  std::thread w1([&] {
    w1_granted = lock.try_lock_for(std::chrono::seconds(60));
    w1_done.store(true);
    if (w1_granted) lock.unlock();
  });
  EXPECT_TRUE(eventually([&] { return lock.stats().write_queued == 1; }));
  std::thread r2([&] {
    lock.lock_shared();  // coalesces into r1's group, ahead of w1
    r2_saw_w1.store(w1_done.load());
    readers_in.fetch_add(1);
    lock.unlock_shared();
  });
  EXPECT_TRUE(eventually([&] { return lock.stats().read_queued == 2; }));
  lock.unlock();
  r1.join();
  r2.join();
  w1.join();
  EXPECT_EQ(readers_in.load(), 2);
  EXPECT_TRUE(r1_saw_r2.load()) << "r2 was not granted with r1's group";
  EXPECT_FALSE(r2_saw_w1.load()) << "r2 ran after w1";
  EXPECT_TRUE(w1_granted);
}

TEST(Fairness, MixedStormCompletes) {
  // Liveness smoke for every contributed lock under a chaotic mix.
  auto run = [](auto& lock) {
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> ops{0};
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256ss rng(t + 1);
        for (int i = 0; i < 1500; ++i) {
          if (rng.bernoulli(85, 100)) {
            lock.lock_shared();
            lock.unlock_shared();
          } else {
            lock.lock();
            lock.unlock();
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(ops.load(), 8u * 1500u);
  };
  FollLock<> foll;
  run(foll);
  RollLock<> roll;
  run(roll);
  GollLock<> goll;
  run(goll);
}

}  // namespace
}  // namespace oll
