// GOLL-specific behavior (paper §3.2): lock state as a function of the
// C-SNZI, handoff discipline, the §3.2.1 write-upgrade / downgrade
// extension, try-lock fast paths, and the fairness-policy knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "lock_test_utils.hpp"
#include "locks/goll_lock.hpp"
#include "platform/spin.hpp"

namespace oll {
namespace {

using test::eventually;

TEST(Goll, StateReflectsCSnzi) {
  GollLock<> lock;
  // Free: open, no surplus.
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
  // Read-acquired: open with surplus.
  lock.lock_shared();
  EXPECT_TRUE(lock.state().open);
  EXPECT_TRUE(lock.state().nonzero);
  lock.unlock_shared();
  // Write-acquired: closed with no surplus.
  lock.lock();
  EXPECT_FALSE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
  lock.unlock();
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, TryLockSemantics) {
  GollLock<> lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());            // already write-held
  EXPECT_FALSE(lock.try_lock_shared());     // closed to readers
  lock.unlock();
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock());            // read-held: CloseIfEmpty fails
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Goll, UpgradeSucceedsWhenSoleReader) {
  GollLock<> lock;
  lock.lock_shared();
  ASSERT_TRUE(lock.try_upgrade());
  // Now write-held: readers must be shut out.
  EXPECT_FALSE(lock.try_lock_shared());
  lock.unlock();
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, UpgradeFailsWithSecondReader) {
  GollLock<> lock;
  lock.lock_shared();
  std::atomic<bool> other_in{false};
  std::atomic<bool> release_other{false};
  std::thread other([&] {
    lock.lock_shared();
    other_in.store(true);
    spin_until([&] { return release_other.load(); });
    lock.unlock_shared();
  });
  spin_until([&] { return other_in.load(); });
  EXPECT_FALSE(lock.try_upgrade());
  // Failed upgrade: we still hold the lock for reading.
  EXPECT_TRUE(lock.state().nonzero);
  release_other.store(true);
  other.join();
  lock.unlock_shared();
  EXPECT_FALSE(lock.state().nonzero);
  EXPECT_TRUE(lock.state().open);
}

TEST(Goll, UpgradeRoundTripStress) {
  GollLock<> lock;
  std::atomic<std::uint64_t> upgrades{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        lock.lock_shared();
        if (lock.try_upgrade()) {
          upgrades.fetch_add(1);
          lock.unlock();
        } else {
          failures.fetch_add(1);
          lock.unlock_shared();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(upgrades.load() + failures.load(), 4u * 500u);
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(Goll, DowngradeKeepsHoldAndAdmitsReaders) {
  GollLock<> lock;
  lock.lock();
  lock.downgrade();
  // Now read-held: another reader (on its own thread — the per-thread
  // ticket makes GOLL non-recursive) can join, a writer cannot.
  std::thread extra([&] {
    ASSERT_TRUE(lock.try_lock_shared());
    lock.unlock_shared();
  });
  extra.join();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock_shared();  // our downgraded hold
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Goll, DowngradeWakesQueuedReaders) {
  GollLock<> lock;
  lock.lock();
  std::atomic<int> readers_through{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();  // queues behind the writer
      readers_through.fetch_add(1);
      lock.unlock_shared();
    });
  }
  // Let the readers reach the queue (closed C-SNZI forces them to enqueue).
  for (int i = 0; i < 2000; ++i) std::this_thread::yield();
  lock.downgrade();
  spin_until([&] { return readers_through.load() == 3; });
  for (auto& th : readers) th.join();
  lock.unlock_shared();
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(Goll, WriterHandsOffToReaderGroup) {
  GollLock<> lock;
  lock.lock();
  constexpr int kReaders = 4;
  std::atomic<int> in{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();
      int now = in.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      // Stay inside until the whole group is in.  A lock that granted the
      // readers one at a time leaves this at the deadline with peak < 4.
      eventually([&] { return peak.load() == kReaders; });
      in.fetch_sub(1);
      lock.unlock_shared();
    });
  }
  // GOLL counts a queued read only after the reader is in the queue.
  EXPECT_TRUE(eventually([&] {
    return lock.stats().read_queued == static_cast<std::uint64_t>(kReaders);
  }));
  lock.unlock();  // hands over to the whole group at once
  for (auto& th : readers) th.join();
  // All queued readers were granted as one group, so all of them were
  // inside simultaneously.
  EXPECT_EQ(peak.load(), kReaders);
}

TEST(Goll, FifoPolicyKnobConstructs) {
  GollOptions o;
  o.readers_coalesce_over_writers = false;
  GollLock<> lock(o);
  lock.lock_shared();
  lock.unlock_shared();
  lock.lock();
  lock.unlock();
}

TEST(Goll, ReaderAfterWriterQueueCycle) {
  // Force the full queue path repeatedly: writer holds, readers queue,
  // writer releases to the group, last reader hands back to next writer.
  GollLock<> lock;
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        lock.lock();
        lock.unlock();
        ops.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
        ops.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ops.load(), 2u * 400u + 4u * 400u);
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

}  // namespace
}  // namespace oll
