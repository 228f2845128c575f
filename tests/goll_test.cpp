// GOLL-specific behavior (paper §3.2): lock state as a function of the
// C-SNZI, handoff discipline, the §3.2.1 write-upgrade / downgrade
// extension, try-lock fast paths, the fairness-policy knob, and the
// writer's spin-for-reopen exits with their write_fast/write_queued counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
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

// --- writer spin-for-reopen and the write_fast/write_queued counts ---------
// Every case hand-shakes on stats or on a hook, never on yield counts.

// RealMemory whose strong CAS runs a one-shot per-thread hook after a
// failure.  The hook stops a writer right after its CloseIfEmpty failed,
// so a test can change the lock state before the writer's next step.
std::function<void()>& after_failed_cas() {
  thread_local std::function<void()> hook;
  return hook;
}

template <typename T>
class HookAtomic : public std::atomic<T> {
 public:
  using std::atomic<T>::atomic;
  using std::atomic<T>::compare_exchange_strong;

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) noexcept {
    if (std::atomic<T>::compare_exchange_strong(expected, desired, success,
                                                failure)) {
      return true;
    }
    if (after_failed_cas()) std::exchange(after_failed_cas(), nullptr)();
    return false;
  }
};

struct HookMemory : RealMemory {
  template <typename T>
  using Atomic = HookAtomic<T>;
};

GollOptions with_metalock(MetalockKind kind) {
  GollOptions o;
  o.metalock.kind = kind;
  return o;
}

// The root reopened between the writer's failed CloseIfEmpty and its next
// step.  The writer acquires without entering the queue: by the reopen
// spin (default metalock) or by the Close under the metalock (tatas).
// Either way it counts as write_fast, never write_queued.
void writer_acquires_after_reopen(MetalockKind kind, bool reader_held) {
  GollLock<HookMemory> lock(with_metalock(kind));
  if (reader_held) {
    lock.lock_shared();
  } else {
    lock.lock();
  }
  std::atomic<bool> cas_failed{false};
  std::atomic<bool> released{false};
  std::thread writer([&] {
    after_failed_cas() = [&] {
      cas_failed.store(true);
      eventually([&] { return released.load(); });
    };
    lock.lock();
    lock.unlock();
  });
  ASSERT_TRUE(eventually([&] { return cas_failed.load(); }));
  if (reader_held) {
    lock.unlock_shared();
  } else {
    lock.unlock();
  }
  released.store(true);
  writer.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_queued, 0u);
  EXPECT_EQ(s.write_fast, reader_held ? 1u : 2u);
  EXPECT_TRUE(lock.state().open);
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(GollWriterSpin, AcquiresReopenedLockWithoutQueueing) {
  writer_acquires_after_reopen(MetalockKind::kCohort, /*reader_held=*/false);
}

TEST(GollWriteStats, CloseUnderMetalockCountsWriteFast) {
  writer_acquires_after_reopen(MetalockKind::kCohort, /*reader_held=*/true);
  writer_acquires_after_reopen(MetalockKind::kTatas, /*reader_held=*/true);
  writer_acquires_after_reopen(MetalockKind::kTatas, /*reader_held=*/false);
}

// write_queued counts a writer once it is in the queue, not before: when
// the count reads 1, a downgrade must see the writer queued and keep the
// root closed for it.  Tatas writers queue at once; the others queue when
// the spin budget runs out with the lock still write-held.
void queued_writer_counted_after_enqueue(MetalockKind kind) {
  GollLock<> lock(with_metalock(kind));
  lock.lock();
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  ASSERT_TRUE(eventually([&] { return lock.stats().write_queued == 1; }));
  lock.downgrade();
  EXPECT_FALSE(lock.state().open);  // the queued writer is next
  EXPECT_FALSE(acquired.load());
  lock.unlock_shared();  // last departure hands the lock to the writer
  writer.join();
  EXPECT_TRUE(acquired.load());
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_fast, 1u);
  EXPECT_EQ(s.write_queued, 1u);
}

TEST(GollWriteStats, QueuedWriterCountedAfterEnqueue) {
  queued_writer_counted_after_enqueue(MetalockKind::kCohort);
}

TEST(GollWriterSpin, TatasWriterBehindWriterQueues) {
  queued_writer_counted_after_enqueue(MetalockKind::kTatas);
}

// A writer that finds readers inside does not spin through their epoch:
// it closes the root over them at once, queues, and the last departure
// hands it the lock.
TEST(GollWriterSpin, ClosesOverReadersAndWaitsForLastDeparture) {
  GollLock<> lock;
  lock.lock_shared();
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  ASSERT_TRUE(eventually([&] { return lock.stats().write_queued == 1; }));
  EXPECT_FALSE(lock.state().open);  // closed over our read hold
  EXPECT_TRUE(lock.state().nonzero);
  EXPECT_FALSE(acquired.load());
  lock.unlock_shared();
  writer.join();
  EXPECT_TRUE(acquired.load());
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_fast, 0u);
  EXPECT_EQ(s.write_queued, 1u);
  EXPECT_EQ(s.read_fast, 1u);
}

// A writer that finds a writer holder with a reader group already queued
// queues behind that group instead of spinning to barge: the release
// hands the lock to the readers, the root stays closed for the writer, and
// the writer gets the lock only from the group's last departure.
TEST(GollWriterSpin, QueuesBehindWaitingReaderGroup) {
  GollLock<> lock;
  lock.lock();
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_go{false};
  std::atomic<bool> writer_in{false};
  std::atomic<bool> reader_saw_writer{false};
  std::thread reader([&] {
    lock.lock_shared();
    reader_in.store(true);
    eventually([&] { return reader_go.load(); });
    reader_saw_writer.store(writer_in.load());
    lock.unlock_shared();
  });
  ASSERT_TRUE(eventually([&] { return lock.stats().read_queued == 1; }));
  std::thread writer([&] {
    lock.lock();
    writer_in.store(true);
    lock.unlock();
  });
  ASSERT_TRUE(eventually([&] { return lock.stats().write_queued == 1; }));
  lock.unlock();  // hands over to the reader group; the writer waits on
  ASSERT_TRUE(eventually([&] { return reader_in.load(); }));
  EXPECT_FALSE(writer_in.load());
  EXPECT_FALSE(lock.state().open);  // a writer is still queued
  reader_go.store(true);
  reader.join();
  writer.join();
  EXPECT_FALSE(reader_saw_writer.load());
  EXPECT_TRUE(writer_in.load());
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_fast, 1u);
  EXPECT_EQ(s.write_queued, 1u);
  EXPECT_EQ(s.read_queued, 1u);
}

}  // namespace
}  // namespace oll
