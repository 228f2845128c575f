// Public-API tests: guards, RwProtected, the factory/registry, concepts,
// and interoperability with the standard library's lock adapters.
#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/oll.hpp"
#include "sim/memory.hpp"

namespace oll {
namespace {

// --- concepts -----------------------------------------------------------------

static_assert(SharedLockable<GollLock<>>);
static_assert(SharedLockable<FollLock<>>);
static_assert(SharedLockable<RollLock<>>);
static_assert(SharedLockable<KsuhRwLock<>>);
static_assert(SharedLockable<SolarisRwLock<>>);
static_assert(SharedLockable<McsRwLock<>>);
static_assert(SharedLockable<BigReaderRwLock<>>);
static_assert(SharedLockable<CentralRwLock<>>);
static_assert(SharedLockable<std::shared_mutex>);
static_assert(TrySharedLockable<GollLock<>>);
static_assert(TrySharedLockable<SolarisRwLock<>>);
static_assert(TrySharedLockable<CentralRwLock<>>);
static_assert(UpgradableLockable<GollLock<>>);
static_assert(!UpgradableLockable<FollLock<>>);
static_assert(BasicLockable<TatasLock<>>);
static_assert(BasicLockable<TicketLock<>>);

// --- guards --------------------------------------------------------------------

TEST(Guards, ReadGuardRaii) {
  GollLock<> lock;
  {
    ReadGuard g(lock);
    EXPECT_TRUE(g.owns_lock());
    EXPECT_TRUE(lock.state().nonzero);
  }
  EXPECT_FALSE(lock.state().nonzero);
}

TEST(Guards, WriteGuardRaii) {
  GollLock<> lock;
  {
    WriteGuard g(lock);
    EXPECT_TRUE(g.owns_lock());
    EXPECT_FALSE(lock.state().open);
  }
  EXPECT_TRUE(lock.state().open);
}

TEST(Guards, EarlyUnlock) {
  GollLock<> lock;
  ReadGuard g(lock);
  g.unlock();
  EXPECT_FALSE(g.owns_lock());
  EXPECT_FALSE(lock.state().nonzero);
  // Destructor must not double-unlock (the DCHECKs inside depart would
  // fire on surplus underflow in debug builds).
}

TEST(Guards, MoveTransfersOwnership) {
  GollLock<> lock;
  {
    WriteGuard a(lock);
    WriteGuard b(std::move(a));
    EXPECT_FALSE(a.owns_lock());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.owns_lock());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Guards, WorkWithStdSharedMutex) {
  std::shared_mutex m;
  {
    ReadGuard g(m);
  }
  {
    WriteGuard g(m);
  }
}

TEST(Guards, StdSharedLockOverOurLocks) {
  // Our locks satisfy the standard SharedMutex requirements used by
  // std::shared_lock / std::unique_lock.
  FollLock<> lock;
  {
    std::shared_lock g(lock);
  }
  {
    std::unique_lock g(lock);
  }
  SolarisRwLock<> s;
  {
    std::shared_lock g(s);
  }
}

// --- RwProtected -----------------------------------------------------------------

TEST(RwProtected, ReadAndWrite) {
  RwProtected<std::string, FollLock<>> value("hello");
  EXPECT_EQ(value.read([](const std::string& s) { return s.size(); }), 5u);
  value.write([](std::string& s) { s += " world"; });
  EXPECT_EQ(value.snapshot(), "hello world");
}

TEST(RwProtected, ReturnsReferenceResults) {
  RwProtected<std::vector<int>, GollLock<>> v;
  v.write([](std::vector<int>& x) { x = {1, 2, 3}; });
  const int sum = v.read([](const std::vector<int>& x) {
    int s = 0;
    for (int i : x) s += i;
    return s;
  });
  EXPECT_EQ(sum, 6);
}

TEST(RwProtected, ConcurrentAccessIsExclusive) {
  RwProtected<std::uint64_t, RollLock<>> counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        counter.write([](std::uint64_t& c) { ++c; });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.snapshot(), 4u * 2000u);
}

// --- factory -----------------------------------------------------------------------

TEST(Factory, AllKindsConstructible) {
  for (LockKind kind : all_lock_kinds()) {
    auto lock = make_rwlock(kind);
    ASSERT_NE(lock, nullptr) << lock_kind_name(kind);
    lock->lock();
    lock->unlock();
    lock->lock_shared();
    lock->unlock_shared();
  }
}

TEST(Factory, SimKindsConstructible) {
  for (LockKind kind : all_lock_kinds()) {
    auto lock = make_rwlock<sim::SimMemory>(kind);
    if (kind == LockKind::kStdShared) {
      EXPECT_EQ(lock, nullptr);  // cannot instrument std::shared_mutex
      continue;
    }
    ASSERT_NE(lock, nullptr) << lock_kind_name(kind);
    lock->lock();
    lock->unlock();
  }
}

TEST(Factory, NamesRoundTrip) {
  EXPECT_EQ(parse_lock_kind("goll"), LockKind::kGoll);
  EXPECT_EQ(parse_lock_kind("FOLL"), LockKind::kFoll);
  EXPECT_EQ(parse_lock_kind("roll"), LockKind::kRoll);
  EXPECT_EQ(parse_lock_kind("ksuh"), LockKind::kKsuh);
  EXPECT_EQ(parse_lock_kind("solaris"), LockKind::kSolarisLike);
  EXPECT_EQ(parse_lock_kind("mcs-rw"), LockKind::kMcsRw);
  EXPECT_EQ(parse_lock_kind("bigreader"), LockKind::kBigReader);
  EXPECT_EQ(parse_lock_kind("central"), LockKind::kCentral);
  EXPECT_EQ(parse_lock_kind("std"), LockKind::kStdShared);
  EXPECT_FALSE(parse_lock_kind("nonsense").has_value());
  EXPECT_FALSE(parse_lock_kind("").has_value());
  // Every printed name (bench output, BENCH_*.json keys) parses back.
  for (LockKind kind : all_lock_kinds()) {
    EXPECT_EQ(parse_lock_kind(lock_kind_name(kind)), kind)
        << lock_kind_name(kind);
  }
}

TEST(Factory, Figure5LegendOrder) {
  const auto kinds = figure5_lock_kinds();
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_STREQ(lock_kind_name(kinds[0]), "GOLL");
  EXPECT_STREQ(lock_kind_name(kinds[1]), "FOLL");
  EXPECT_STREQ(lock_kind_name(kinds[2]), "ROLL");
  EXPECT_STREQ(lock_kind_name(kinds[3]), "KSUH");
  EXPECT_STREQ(lock_kind_name(kinds[4]), "Solaris-like");
}

TEST(Factory, AdapterExposesUnderlying) {
  RwLockAdapter<GollLock<>> adapter("GOLL", GollOptions{});
  adapter.lock_shared();
  EXPECT_TRUE(adapter.underlying().state().nonzero);
  adapter.unlock_shared();
  EXPECT_STREQ(adapter.name(), "GOLL");
}

// --- other baselines -----------------------------------------------------------------

TEST(BigReader, WriterTakesAllSlots) {
  BigReaderRwLock<> lock;
  lock.lock();
  std::thread reader([&] {
    EXPECT_FALSE(lock.try_lock_shared());
  });
  reader.join();
  lock.unlock();
  EXPECT_TRUE(lock.try_lock_shared());
  lock.unlock_shared();
}

TEST(BigReader, TryLockBacksOutCleanly) {
  BigReaderRwLock<> lock;
  std::thread reader_holding([&] {
    lock.lock_shared();
    // Writer try_lock must fail and release every slot it claimed.
    std::thread writer([&] { EXPECT_FALSE(lock.try_lock()); });
    writer.join();
    lock.unlock_shared();
  });
  reader_holding.join();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Central, WriterPreferenceBlocksNewReaders) {
  CentralRwLock<> lock;
  lock.lock_shared();
  std::atomic<bool> writer_started{false};
  std::thread writer([&] {
    writer_started.store(true);
    lock.lock();  // sets writerWanted, then waits for the reader
    lock.unlock();
  });
  while (!writer_started.load()) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) std::this_thread::yield();
  // With the wanted bit set, new readers must be refused.
  if ((lock.lockword() & CentralRwLock<>::kWriterWanted) != 0) {
    EXPECT_FALSE(lock.try_lock_shared());
  }
  lock.unlock_shared();
  writer.join();
  EXPECT_TRUE(lock.try_lock_shared());
  lock.unlock_shared();
}

TEST(Solaris, LockwordEncodesState) {
  SolarisRwLock<> lock;
  EXPECT_EQ(lock.lockword(), 0u);
  lock.lock_shared();
  EXPECT_EQ(SolarisRwLock<>::readers(lock.lockword()), 1u);
  lock.unlock_shared();
  lock.lock();
  EXPECT_NE(lock.lockword() & SolarisRwLock<>::kWriteLocked, 0u);
  lock.unlock();
  EXPECT_EQ(lock.lockword(), 0u);
}

}  // namespace
}  // namespace oll
