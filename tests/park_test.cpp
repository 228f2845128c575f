// Spin-then-park substrate tests (platform/park.hpp, DESIGN.md §16).
//
// Covers the substrate's contracts directly — consume-or-unpark pairing,
// sticky timeout marker, census/gauge bookkeeping, bounded recovery from
// injected lost wakes, determinism of the fault draw streams — plus the
// watchdog's "runnable and not progressing" detection (a planted long park
// must NOT be an incident; a runnable spinner stuck just as long must).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "harness/watchdog.hpp"
#include "lock_test_utils.hpp"
#include "platform/fault.hpp"
#include "platform/park.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"

namespace oll {
namespace {

using test::eventually;

constexpr std::uint32_t kWaitVal = 0;
constexpr std::uint32_t kParkedVal = 2;
constexpr std::uint32_t kGrantVal = 1;

TEST(ParkBasics, GrantBeforeWaitReturnsImmediately) {
  std::atomic<std::uint32_t> word{kGrantVal};
  // Terminal value already in place: no spin phase, no sleep.
  EXPECT_EQ(park_wait_u32(word, kWaitVal, kParkedVal), kGrantVal);
}

TEST(ParkBasics, GrantConsumesOrUnparksExactlyOnce) {
  ScopedThreadIndex main_idx(1);
  const ParkStats before = park_stats();
  std::atomic<std::uint32_t> word{kWaitVal};
  std::uint32_t seen = 0;
  std::thread waiter([&] {
    ScopedThreadIndex idx(0);
    seen = park_wait_u32(word, kWaitVal, kParkedVal);
  });
  // Wait until the waiter advertised the parked marker, so the grant
  // exercises the displaced == parked_val → unpark edge.
  ASSERT_TRUE(eventually([&] {
    return word.load(std::memory_order_acquire) == kParkedVal;
  }));
  const std::uint32_t displaced =
      park_grant_u32(word, kGrantVal, kParkedVal, /*all=*/false);
  waiter.join();
  EXPECT_EQ(seen, kGrantVal);
  EXPECT_EQ(displaced, kParkedVal);
  const ParkStats after = park_stats();
  EXPECT_GE(after.unparks, before.unparks + 1);
  EXPECT_EQ(parked_thread_count(), 0u);
}

TEST(ParkBasics, SharedWordWakesAllWaiters) {
  // FOLL/ROLL reader nodes: several threads converge on one parked word;
  // the granter's single exchange + unpark_all must release every one.
  constexpr std::uint32_t kWaiters = 4;
  std::atomic<std::uint32_t> word{kWaitVal};
  std::atomic<std::uint32_t> done{0};
  std::vector<std::thread> pool;
  for (std::uint32_t w = 0; w < kWaiters; ++w) {
    pool.emplace_back([&, w] {
      ScopedThreadIndex idx(w);
      EXPECT_EQ(park_wait_u32(word, kWaitVal, kParkedVal), kGrantVal);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  ASSERT_TRUE(eventually([&] {
    return word.load(std::memory_order_acquire) == kParkedVal;
  }));
  park_grant_u32(word, kGrantVal, kParkedVal, /*all=*/true);
  for (auto& t : pool) t.join();
  EXPECT_EQ(done.load(), kWaiters);
  EXPECT_EQ(parked_thread_count(), 0u);
}

TEST(ParkBasics, TimedOutWaitLeavesStickyMarker) {
  ScopedThreadIndex idx(0);
  std::atomic<std::uint32_t> word{kWaitVal};
  const std::uint64_t deadline = now_ns() + 40'000'000;  // 40 ms
  std::uint32_t terminal = 0;
  EXPECT_FALSE(
      park_wait_until_u32(word, kWaitVal, kParkedVal, deadline, &terminal));
  // The marker is deliberately NOT reverted on timeout: a grant racing the
  // timeout must still see kParkedVal and issue its unpark — a cancelled
  // waiter can cost one superfluous unpark, never a lost wake.
  EXPECT_EQ(word.load(std::memory_order_acquire), kParkedVal);
  EXPECT_EQ(park_grant_u32(word, kGrantVal, kParkedVal), kParkedVal);
  EXPECT_EQ(parked_thread_count(), 0u);
}

TEST(ParkBasics, TimedWaitGrantedBeforeDeadline) {
  ScopedThreadIndex main_idx(1);
  std::atomic<std::uint32_t> word{kWaitVal};
  bool granted = false;
  std::uint32_t terminal = 0;
  std::thread waiter([&] {
    ScopedThreadIndex idx(0);
    granted = park_wait_until_u32(word, kWaitVal, kParkedVal,
                                  now_ns() + 5'000'000'000, &terminal);
  });
  ASSERT_TRUE(eventually([&] {
    return word.load(std::memory_order_acquire) == kParkedVal;
  }));
  park_grant_u32(word, kGrantVal, kParkedVal);
  waiter.join();
  EXPECT_TRUE(granted);
  EXPECT_EQ(terminal, kGrantVal);
}

TEST(ParkBasics, CensusTracksParkedThread) {
  constexpr std::uint32_t kIdx = 5;
  std::atomic<std::uint32_t> word{kWaitVal};
  std::thread waiter([&] {
    ScopedThreadIndex idx(kIdx);
    (void)park_wait_u32(word, kWaitVal, kParkedVal);
  });
  // Gauge and per-thread census both see the sleeper...
  ASSERT_TRUE(eventually([&] { return parked_thread_count() >= 1; }));
  ASSERT_TRUE(eventually(
      [&] { return park_thread_state(kIdx).parked_since_ns != 0; }));
  const std::uint64_t cum_before = park_thread_state(kIdx).cum_parked_ns;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  park_grant_u32(word, kGrantVal, kParkedVal);
  waiter.join();
  // ...and both drain when it wakes: gauge to zero, slice time into cum.
  EXPECT_EQ(parked_thread_count(), 0u);
  EXPECT_EQ(park_thread_state(kIdx).parked_since_ns, 0u);
  EXPECT_GT(park_thread_state(kIdx).cum_parked_ns, cum_before);
}

TEST(ParkBasics, SpinBudgetStaysClamped) {
  for (int i = 0; i < 64; ++i) park_note_park_grant();
  EXPECT_GE(park_spin_budget(), kParkMinSpin);
  for (int i = 0; i < 64; ++i) park_note_spin_grant(1u << 20);
  EXPECT_LE(park_spin_budget(), kParkMaxSpin);
}

// --- fault model -----------------------------------------------------------

// Records the injected-fault draw sequence a fixed (profile, seed, dense
// thread index) produces.  Pure function of those three inputs — this is
// what makes a park-chaos fuzzer failure replayable from a one-line repro.
std::vector<std::uint8_t> draw_sequence(const FaultProfile& profile,
                                        std::uint64_t seed,
                                        std::uint32_t dense_index, int n) {
  std::vector<std::uint8_t> seq;
  fault_enable(profile, seed);
  std::thread t([&] {
    ScopedThreadIndex idx(dense_index);
    for (int i = 0; i < n; ++i) {
      std::uint8_t bits = 0;
      if (fault_park_spurious()) bits |= 1;
      if (fault_park_lost()) bits |= 2;
      if (fault_park_delay() != 0) bits |= 4;
      seq.push_back(bits);
    }
  });
  t.join();
  fault_disable();
  return seq;
}

TEST(ParkFaults, DrawStreamsAreDeterministicPerSeed) {
  const FaultProfile chaos = fault_profile_park_chaos();
  const auto a = draw_sequence(chaos, 42, 3, 400);
  const auto b = draw_sequence(chaos, 42, 3, 400);
  EXPECT_EQ(a, b) << "same (profile, seed, tid) must replay bit-for-bit";
  const auto c = draw_sequence(chaos, 43, 3, 400);
  EXPECT_NE(a, c) << "different seed must perturb the schedule";
  // The profile actually injects: an all-quiet stream would silently turn
  // every park-fault suite into a no-op.
  bool any = false;
  for (std::uint8_t bits : a) any |= bits != 0;
  EXPECT_TRUE(any);
}

TEST(ParkFaults, LostWakeRecoversWithinBoundedSlices) {
  // Under park-lost, parkers go deaf to real unparks; the bounded-slice
  // rearm (kParkSliceNs) must recover every handoff — lost wakes degrade
  // to latency, never deadlock.  50 handoffs with injection hot: the test
  // passing at all IS the recovery bound (suite timeout backstops it).
  fault_enable(fault_profile_park_lost(), 0x5eed);
  const ParkStats before = park_stats();
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint32_t> word{kWaitVal};
    std::uint32_t seen = 0;
    std::thread waiter([&] {
      ScopedThreadIndex idx(0);
      seen = park_wait_u32(word, kWaitVal, kParkedVal);
    });
    {
      ScopedThreadIndex granter_idx(1);
      eventually([&] {
        return word.load(std::memory_order_acquire) == kParkedVal;
      });
      // Grant only once the waiter is inside park(), past its lost-wake
      // draw.  A grant that lands between the waiter's parked-marker CAS
      // and park() skips the draw, and a granter that always wins that
      // race injects nothing.
      eventually([] { return parked_thread_count() > 0; });
      park_grant_u32(word, kGrantVal, kParkedVal);
    }
    waiter.join();
    ASSERT_EQ(seen, kGrantVal);
  }
  fault_disable();
  const ParkStats after = park_stats();
  EXPECT_GT(after.injected_lost, before.injected_lost)
      << "profile armed but no lost wakes were injected";
  EXPECT_EQ(parked_thread_count(), 0u);
}

TEST(ParkFaults, SpuriousWakesReparkUntilGranted) {
  fault_enable(fault_profile_park_spurious(), 0x5eed);
  const ParkStats before = park_stats();
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint32_t> word{kWaitVal};
    std::uint32_t seen = 0;
    std::thread waiter([&] {
      ScopedThreadIndex idx(0);
      ParkWaitOutcome o;
      seen = park_wait_u32(word, kWaitVal, kParkedVal, &o);
    });
    {
      ScopedThreadIndex granter_idx(1);
      eventually([&] {
        return word.load(std::memory_order_acquire) == kParkedVal;
      });
      // Let a few spurious wake/re-park cycles happen before granting.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      park_grant_u32(word, kGrantVal, kParkedVal);
    }
    waiter.join();
    ASSERT_EQ(seen, kGrantVal);
  }
  fault_disable();
  const ParkStats after = park_stats();
  EXPECT_GT(after.injected_spurious, before.injected_spurious)
      << "profile armed but no spurious wakes were injected";
  EXPECT_EQ(parked_thread_count(), 0u);
}

// --- watchdog: parked is healthy, runnable-stuck is not --------------------

class ParkWatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockFactoryOptions o;
    o.max_threads = 4;
    o.register_lock = false;
    lock_ = make_rwlock(LockKind::kGoll, o);
    opts_.floor_ns = 30'000'000;  // 30 ms
    opts_.use_histogram = false;
    opts_.poll_interval_ms = 5;
  }

  std::unique_ptr<AnyRwLock> lock_;
  bench::WatchdogOptions opts_;
};

TEST_F(ParkWatchdogTest, PlantedLongParkIsNotAnIncident) {
  // Regression test for the false-positive fix: a waiter that spends 6x
  // the watchdog threshold PARKED (censused sleep, no deadline) must never
  // be reported — "sleeping and healthy", not "runnable and not
  // progressing".
  bench::Watchdog wd(*lock_, opts_, /*workers=*/1);
  wd.start();
  std::atomic<std::uint32_t> word{kWaitVal};
  std::thread worker([&] {
    ScopedThreadIndex idx(0);
    wd.begin_acquire(0, /*write=*/true);
    (void)park_wait_u32(word, kWaitVal, kParkedVal);
    wd.end_acquire(0);
  });
  ASSERT_TRUE(eventually([&] {
    return word.load(std::memory_order_acquire) == kParkedVal;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(180));
  park_grant_u32(word, kGrantVal, kParkedVal);
  worker.join();
  wd.stop();
  EXPECT_EQ(wd.incidents(), 0u)
      << "a parked waiter was reported as a stuck incident";
}

TEST_F(ParkWatchdogTest, RunnableStuckWaiterIsStillDetected) {
  // The other half of "runnable and not progressing": a busy spinner stuck
  // past the threshold must still trip — the park census must not make the
  // watchdog blind.
  bench::Watchdog wd(*lock_, opts_, /*workers=*/1);
  wd.start();
  std::atomic<bool> release{false};
  std::thread worker([&] {
    ScopedThreadIndex idx(0);
    wd.begin_acquire(0, /*write=*/true);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    wd.end_acquire(0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(180));
  release.store(true, std::memory_order_release);
  worker.join();
  wd.stop();
  EXPECT_GE(wd.incidents(), 1u);
}

}  // namespace
}  // namespace oll
