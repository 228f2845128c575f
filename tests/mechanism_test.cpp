// Mechanism tests: use the per-lock statistics to assert the paper's causal
// claims directly, not just their throughput consequences.
//
//   §3.2  "the mutex is never accessed for read-only workloads"   (GOLL)
//   §4.2  "read-only workloads avoid writing the tail pointer
//          entirely" — readers share the existing node               (FOLL)
//   §4.3  readers overtake waiting writers by joining waiting
//          reader groups                                             (ROLL)
//
// Also covers the blocking (condition-variable) wait strategy added for
// production use (paper §1: real deployments deschedule waiting threads).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "locks/foll_lock.hpp"
#include "locks/goll_lock.hpp"
#include "locks/roll_lock.hpp"
#include "locks/solaris_rwlock.hpp"
#include "platform/fault.hpp"
#include "platform/spin.hpp"
#include "lock_test_utils.hpp"

namespace oll {
namespace {

using test::ExclusionChecker;
using test::run_mixed_workload;

// --- §3.2: GOLL read-only workloads never queue ------------------------------

TEST(Mechanism, GollReadOnlyNeverTouchesQueue) {
  GollLock<> lock;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  for (auto& th : threads) th.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.read_fast, 8u * 3000u);
  EXPECT_EQ(s.read_queued, 0u);  // the §3.2 claim, verified causally
  EXPECT_EQ(s.writes(), 0u);
}

TEST(Mechanism, GollWritersForceQueueing) {
  GollLock<> lock;
  lock.lock();  // held for writing
  std::thread reader([&] {
    lock.lock_shared();
    lock.unlock_shared();
  });
  // Wait until the reader has demonstrably queued (the counter is bumped
  // right before it parks), so the assertion below cannot race.
  spin_until([&] { return lock.stats().read_queued == 1; });
  lock.unlock();
  reader.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.write_fast, 1u);
  EXPECT_EQ(s.read_queued, 1u);  // the reader had to sleep in the queue
}

// --- DESIGN.md §15: a combined write performs zero metalock handoffs --------

// One delegation round: the main thread holds the lock for writing, a
// delegator publishes a closure via with_write, and the holder's unlock
// drains it.  Returns false (caller retries) if the delegator's bounded spin
// expired before the drain and it fell back to a conventional acquire — the
// stats then show a queued write rather than a combined op, so a false round
// can never fake the assertion.
bool combined_round(GollLock<>& lock, LockStatsSnapshot& before,
                    LockStatsSnapshot& after) {
  lock.lock();
  before = lock.stats();
  std::atomic<bool> ran{false};
  std::thread delegator([&] {
    lock.with_write(
        [](void* p) {
          static_cast<std::atomic<bool>*>(p)->store(
              true, std::memory_order_release);
        },
        &ran);
  });
  // Wait (bounded) for the closure to appear in the combining pool.  No
  // spin_until: if the delegator already gave up and queued, pending stays
  // zero forever and we must release the lock to let it through.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!lock.combining_pending() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  before = lock.stats();  // re-snapshot: nothing combined yet, publish done
  lock.unlock();          // drains the pool while still exclusive
  delegator.join();
  after = lock.stats();
  EXPECT_TRUE(ran.load(std::memory_order_acquire));
  return after.combined_ops == before.combined_ops + 1;
}

TEST(Mechanism, GollCombinedWriteSkipsMetalockAndQueue) {
  GollOptions opts;
  opts.combine = true;
  GollLock<> lock(opts);
  for (int attempt = 0; attempt < 50; ++attempt) {
    LockStatsSnapshot before, after;
    if (!combined_round(lock, before, after)) continue;  // raced; retry
    // The delegated op was executed by the holder's pre-release drain:
    EXPECT_EQ(after.combine_batches, before.combine_batches + 1);
    EXPECT_EQ(after.combine_handoffs_saved,
              before.combine_handoffs_saved + 1);
    // ...and the delegator itself never took ownership: no metalock
    // handoff, no queue transit, no write acquisition of its own.  This is
    // the counter-level proof behind the fig5f throughput win.
    EXPECT_EQ(after.meta_handoffs, before.meta_handoffs);
    EXPECT_EQ(after.write_queued, before.write_queued);
    EXPECT_EQ(after.writes(), before.writes());
    return;
  }
  FAIL() << "no round produced a combined op in 50 attempts";
}

// --- §4.2: FOLL readers share one node ----------------------------------------

TEST(Mechanism, FollReadOnlySharesFirstNode) {
  FollLock<> lock;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock_shared();
        lock.unlock_shared();
      }
    });
  }
  for (auto& th : threads) th.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.reads(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Read-only: no reader ever waits (every group it joins is active).
  EXPECT_EQ(s.read_queued, 0u);
}

TEST(Mechanism, FollReadersBehindWriterCountAsQueued) {
  FollLock<> lock;
  lock.lock();
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();
      lock.unlock_shared();
    });
  }
  // All three must have joined the queue (counters bump pre-wait).
  spin_until([&] {
    return lock.stats().reads() == static_cast<std::uint64_t>(kReaders);
  });
  lock.unlock();
  for (auto& th : readers) th.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.reads(), static_cast<std::uint64_t>(kReaders));
  EXPECT_GE(s.read_queued, 1u);  // at least the node-enqueuing reader waited
  EXPECT_EQ(s.write_fast, 1u);
}

// --- §4.3: ROLL reader preference ------------------------------------------------

TEST(Mechanism, RollOvertakingReaderCountsAsQueuedJoin) {
  RollLock<> lock;
  lock.lock();  // W0
  std::thread r1([&] {
    lock.lock_shared();
    lock.unlock_shared();
  });
  spin_until([&] { return lock.stats().read_queued == 1; });
  std::thread w1([&] {
    lock.lock();
    lock.unlock();
  });
  spin_until([&] { return lock.stats().write_queued == 1; });
  std::thread r2([&] {
    lock.lock_shared();  // overtakes w1 by joining r1's waiting node
    lock.unlock_shared();
  });
  spin_until([&] { return lock.stats().read_queued == 2; });
  lock.unlock();
  r1.join();
  r2.join();
  w1.join();
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.reads(), 2u);
  EXPECT_EQ(s.read_queued, 2u);  // both readers waited (in ONE group)
  EXPECT_EQ(s.write_queued, 1u);
  EXPECT_EQ(s.write_fast, 1u);  // W0
}

TEST(Mechanism, StatsConsistentUnderMixedLoad) {
  GollLock<> goll;
  FollLock<> foll;
  RollLock<> roll;
  auto drive = [](auto& lock) {
    ExclusionChecker checker;
    run_mixed_workload(lock, checker, 6, 800, 80);
    EXPECT_EQ(checker.violations(), 0u);
    const LockStatsSnapshot s = lock.stats();
    EXPECT_EQ(s.reads() + s.writes(), 6u * 800u);
  };
  drive(goll);
  drive(foll);
  drive(roll);
}

// --- blocking wait strategy --------------------------------------------------------

TEST(BlockingWaiters, GollExclusionWithParkedThreads) {
  GollOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  GollLock<> lock(o);
  ExclusionChecker checker;
  const auto writes = run_mixed_workload(lock, checker, 6, 1000, 70);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes);
}

TEST(BlockingWaiters, SolarisExclusionWithParkedThreads) {
  SolarisOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  SolarisRwLock<> lock(o);
  ExclusionChecker checker;
  const auto writes = run_mixed_workload(lock, checker, 6, 1000, 70);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.unprotected_counter, writes);
}

TEST(BlockingWaiters, ParkedReaderGroupWakesTogether) {
  GollOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  GollLock<> lock(o);
  lock.lock();
  constexpr int kReaders = 4;
  std::atomic<int> through{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      lock.lock_shared();  // parks on the condition variable
      through.fetch_add(1);
      lock.unlock_shared();
    });
  }
  for (int i = 0; i < 4000; ++i) std::this_thread::yield();
  lock.unlock();
  for (auto& th : readers) th.join();
  EXPECT_EQ(through.load(), kReaders);
}

TEST(BlockingWaiters, WriterParkAndHandoff) {
  GollOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  GollLock<> lock(o);
  lock.lock_shared();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    lock.lock();  // parks until the reader departs
    writer_done.store(true);
    lock.unlock();
  });
  for (int i = 0; i < 4000; ++i) std::this_thread::yield();
  EXPECT_FALSE(writer_done.load());
  lock.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

// --- kBlocking wait-node lifetime (regression) ------------------------------
// A blocking waiter that saw its grant during the pre-park spin used to
// return at once, destroying its stack node — and the node's mutex and
// condition variable — while the granter was still inside grant(), holding
// that mutex and about to notify.  Each round below hands write ownership
// from the main thread to a peer queued behind it; a yield-at-every-hook
// fault profile stalls the granter between its flag store and its notify,
// so the peer (still spinning, since the main thread releases as soon as
// `peer_queued(r)` returns) observes the flag inside that window on most
// rounds.  Before the fix this crashed or tripped ASan/TSan within a few
// rounds.

template <typename Lock, typename PeerQueued>
void blocking_handoff_rounds(Lock& lock, int rounds, PeerQueued peer_queued) {
  FaultProfile yield_everywhere;
  yield_everywhere.name = "yield-everywhere";
  yield_everywhere.yield_p = 1024;
  fault_enable(yield_everywhere, 7);
  std::atomic<int> turn{0};
  std::thread peer([&] {
    for (int r = 0; r < rounds; ++r) {
      while (turn.load(std::memory_order_acquire) != 2 * r + 1) {
        std::this_thread::yield();
      }
      lock.lock();  // queues behind the main thread's hold
      lock.unlock();
      turn.store(2 * r + 2, std::memory_order_release);
    }
  });
  for (int r = 0; r < rounds; ++r) {
    lock.lock();
    turn.store(2 * r + 1, std::memory_order_release);
    peer_queued(r);
    lock.unlock();  // hands off to the peer if it has queued
    while (turn.load(std::memory_order_acquire) != 2 * r + 2) {
      std::this_thread::yield();
    }
  }
  peer.join();
  fault_disable();
}

TEST(BlockingWaiters, GollHandoffNeverOutlivesWaitNode) {
  GollOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  GollLock<> lock(o);
  constexpr int kRounds = 2000;
  // Hold until the peer is in the queue: a writer that finds the lock
  // write-held first spins for it to reopen, so releasing early lets the
  // peer acquire without queueing.  GOLL counts write_queued only after
  // the enqueue.
  std::uint64_t queued = 0;
  blocking_handoff_rounds(lock, kRounds, [&](int /*round*/) {
    EXPECT_TRUE(test::eventually(
        [&] { return lock.stats().write_queued > queued; }));
    queued = lock.stats().write_queued;
  });
  const LockStatsSnapshot s = lock.stats();
  EXPECT_EQ(s.writes(), 2u * kRounds);
  // Every round exercised the queued handoff, not the uncontended fast
  // path or the reopen spin.
  EXPECT_EQ(s.write_queued, static_cast<std::uint64_t>(kRounds));
}

TEST(BlockingWaiters, SolarisHandoffNeverOutlivesWaitNode) {
  SolarisOptions o;
  o.wait_strategy = WaitStrategy::kBlocking;
  SolarisRwLock<> lock(o);
  // The Solaris-like lock keeps no stats; its writers queue at once, so a
  // release after 0-3 yields finds the peer queued on most rounds.
  blocking_handoff_rounds(lock, 2000, [](int r) {
    for (int i = 0; i < r % 4; ++i) std::this_thread::yield();
  });
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace oll
