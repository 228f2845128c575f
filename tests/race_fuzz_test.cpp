// Schedule-fuzzing tests: run small adversarial scenarios under TestMemory,
// which injects a randomized yield before every atomic operation, across
// many seeds.  On a host whose OS scheduler is too coarse to interleave
// lock operations naturally, this is what actually exercises the narrow
// windows (FOLL's open-after-enqueue, ROLL's deferred close, KSUH's splice
// validation, GOLL's Close-vs-last-depart handshake).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "locks/bravo.hpp"
#include "locks/central_rwlock.hpp"
#include "locks/foll_lock.hpp"
#include "locks/goll_lock.hpp"
#include "locks/ksuh_rwlock.hpp"
#include "locks/mcs_rwlock.hpp"
#include "locks/roll_lock.hpp"
#include "locks/solaris_rwlock.hpp"
#include "platform/fault.hpp"
#include "platform/test_memory.hpp"
#include "snzi/csnzi.hpp"
#include "lock_test_utils.hpp"

namespace oll {
namespace {

using test::ExclusionChecker;

// Small scenario, many seeds: `threads` workers each do `iters` mixed
// acquisitions with fuzzed interleavings; the exclusion oracle and the
// protected counter must hold for every seed.
template <typename Lock>
void fuzz_rounds(int rounds, unsigned threads, unsigned iters,
                 unsigned read_pct) {
  for (int round = 0; round < rounds; ++round) {
    Lock lock;
    ExclusionChecker checker;
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> writes{0};
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t, round] {
        FuzzYield::set_seed(0x9E3779B9u * (round + 1) + t + 1);
        Xoshiro256ss rng(round * 131 + t);
        std::uint64_t local = 0;
        for (unsigned i = 0; i < iters; ++i) {
          if (rng.bernoulli(read_pct, 100)) {
            lock.lock_shared();
            checker.reader_enter();
            checker.reader_exit();
            lock.unlock_shared();
          } else {
            lock.lock();
            checker.writer_enter();
            ++checker.unprotected_counter;
            checker.writer_exit();
            lock.unlock();
            ++local;
          }
        }
        writes.fetch_add(local);
        FuzzYield::set_seed(0);  // restore for thread-slot reuse
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(checker.violations(), 0u) << "round " << round;
    ASSERT_EQ(checker.unprotected_counter, writes.load())
        << "round " << round;
  }
}

TEST(RaceFuzz, Foll) { fuzz_rounds<FollLock<TestMemory>>(400, 4, 40, 70); }
TEST(RaceFuzz, Roll) { fuzz_rounds<RollLock<TestMemory>>(400, 4, 40, 70); }
TEST(RaceFuzz, Goll) { fuzz_rounds<GollLock<TestMemory>>(400, 4, 40, 70); }
TEST(RaceFuzz, Ksuh) { fuzz_rounds<KsuhRwLock<TestMemory>>(400, 4, 40, 70); }
TEST(RaceFuzz, Solaris) {
  fuzz_rounds<SolarisRwLock<TestMemory>>(400, 4, 40, 70);
}
TEST(RaceFuzz, McsRw) { fuzz_rounds<McsRwLock<TestMemory>>(400, 4, 40, 70); }

// BRAVO wrapper under fuzzed interleavings: the publish/re-check vs.
// clear/scan handshake is the narrow window here, so writers (30%) force
// frequent revocations while readers race the bias fast path.
TEST(RaceFuzz, BravoGoll) {
  fuzz_rounds<Bravo<GollLock<TestMemory>, TestMemory>>(150, 4, 40, 70);
}
TEST(RaceFuzz, BravoCentral) {
  fuzz_rounds<Bravo<CentralRwLock<TestMemory>, TestMemory>>(150, 4, 40, 70);
}
TEST(RaceFuzz, BravoCentralReadHeavy) {
  fuzz_rounds<Bravo<CentralRwLock<TestMemory>, TestMemory>>(150, 5, 60, 95);
}

TEST(RaceFuzz, FollReadHeavy) {
  fuzz_rounds<FollLock<TestMemory>>(250, 5, 60, 95);
}
TEST(RaceFuzz, RollReadHeavy) {
  fuzz_rounds<RollLock<TestMemory>>(250, 5, 60, 95);
}
TEST(RaceFuzz, KsuhWriteHeavy) {
  fuzz_rounds<KsuhRwLock<TestMemory>>(250, 4, 40, 20);
}

// Writer-heavy GOLL with yields and delays injected at the spin-wait site
// as well: writers that find the lock write-held spin for the reopen and
// retry CloseIfEmpty, racing the eliding release, queued handoffs and
// readers spinning for the same reopen.
TEST(RaceFuzz, GollWriteHeavySpinWait) {
  struct Jitter {
    Jitter() { fault_enable(fault_profile_jitter(), 19); }
    ~Jitter() { fault_disable(); }
  } jitter;
  fuzz_rounds<GollLock<TestMemory>>(250, 4, 40, 20);
}

// FOLL node-pool invariant under fuzzing: after quiescence plus a flushing
// write acquisition, every pool node must be free.
TEST(RaceFuzz, FollPoolNeverLeaks) {
  for (int round = 0; round < 100; ++round) {
    FollLock<TestMemory> lock;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 4; ++t) {
      workers.emplace_back([&, t, round] {
        FuzzYield::set_seed(round * 977 + t + 1);
        Xoshiro256ss rng(t);
        for (unsigned i = 0; i < 50; ++i) {
          if (rng.bernoulli(4, 5)) {
            lock.lock_shared();
            lock.unlock_shared();
          } else {
            lock.lock();
            lock.unlock();
          }
        }
        FuzzYield::set_seed(0);
      });
    }
    for (auto& w : workers) w.join();
    lock.lock();
    lock.unlock();
    ASSERT_EQ(lock.pool_nodes_in_use(), 0u) << "round " << round;
  }
}

// C-SNZI exactly-one-last-departure under fuzzing (the property every OLL
// lock's handoff depends on).
TEST(RaceFuzz, CSnziExactlyOneLastDeparture) {
  for (int round = 0; round < 200; ++round) {
    CSnzi<TestMemory> c;
    constexpr int kHolders = 4;
    std::atomic<int> arrived{0};
    std::atomic<int> last{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kHolders; ++t) {
      threads.emplace_back([&, t, round] {
        FuzzYield::set_seed(round * 31 + t + 1);
        auto ticket = c.arrive();
        ASSERT_TRUE(ticket.arrived());
        arrived.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (!c.depart(ticket)) last.fetch_add(1);
        FuzzYield::set_seed(0);
      });
    }
    while (arrived.load() != kHolders) std::this_thread::yield();
    ASSERT_FALSE(c.close());
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    ASSERT_EQ(last.load(), 1) << "round " << round;
  }
}

}  // namespace
}  // namespace oll
