// Lock footprint and hot-word layout (DESIGN.md §17).
//
// Footprint: every operator new in this binary is counted, and each factory
// kind is charged the bytes its construction allocates, at max_threads 4
// (the B-tree latch configuration) and 512 (the default).  The ceilings
// below sit a little above the measured figures, so a change that grows a
// lock's metadata — a new per-thread field, an eager allocation — fails
// here instead of silently multiplying a latch table's memory.  Locks are
// built with register_lock = false: the registry node is a fixed cost per
// lock outside the kind's own layout.  `footprint_test --print` prints the
// table as `footprint.<kind>.bytes_mt<N> <bytes> <ceiling>` and
// `footprint.<kind>.allocs_mt4 <allocations> <ceiling>` lines instead of
// running the tests (scripts/bench_smoke.py records and gates them).
//
// Pay-for-use: no lazily allocated block (locks/per_thread.hpp) may exist
// until its first use — histograms until latency timing is enabled or a
// waiter parks, census slots until the census is enabled, the stats
// baseline until reset_stats(), metalock nodes until a contended writer
// path, combining slots until a delegation.  The construction-allocation
// counts below pin how many blocks a kind allocates eagerly.
//
// Layout: the C-SNZI root and GOLL's writer-side words (has_waiters_, the
// wait queue, the combining pool) each sit on false-sharing ranges that no
// read-mostly member shares, whatever offset the allocator hands out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "locks/goll_lock.hpp"
#include "locks/lock_stats.hpp"
#include "platform/cache_line.hpp"
#include "platform/trace.hpp"
#include "snzi/csnzi.hpp"

namespace {
std::atomic<std::uint64_t> g_new_bytes{0};
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n != 0 ? n : 1);
  } else if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oll {
namespace {

// Heap bytes and allocations one factory lock makes at construction.  A
// first lock of the same kind is built and dropped beforehand so
// process-wide one-time set-up (topology discovery, thread registration)
// is not charged.
struct Construction {
  std::uint64_t bytes;
  std::uint64_t allocs;
};

Construction construction(LockKind kind, std::uint32_t max_threads) {
  LockFactoryOptions o;
  o.max_threads = max_threads;
  o.register_lock = false;
  (void)make_rwlock(kind, o);
  const std::uint64_t bytes = g_new_bytes.load(std::memory_order_relaxed);
  const std::uint64_t calls = g_new_calls.load(std::memory_order_relaxed);
  auto lock = make_rwlock(kind, o);
  return {g_new_bytes.load(std::memory_order_relaxed) - bytes,
          g_new_calls.load(std::memory_order_relaxed) - calls};
}

// The kind's factory name in lower case ("opt-bravo-goll"), as bench keys
// spell it.
std::string bench_key(LockKind kind) {
  if (kind == LockKind::kStdShared) return "std";
  std::string s = lock_kind_name(kind);
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

// Per-kind ceilings: heap bytes at max_threads 4 and 512, and allocations
// at max_threads 4 (FOLL and ROLL allocate one reader node per thread).
// Measured on x86-64 Linux (DESIGN.md §17.3 table) plus ~15 % headroom;
// GOLL and OPT-BRAVO-GOLL are capped tighter, at the budgets the
// pay-for-use blocks were built to meet (3.5 KiB / 200 KiB and
// 5.5 KiB / 400 KiB).  FOLL and ROLL carry a pool of reader nodes, each
// with its own C-SNZI, so they grow with the C-SNZI's aligned root range.
struct Ceiling {
  std::uint64_t mt4;
  std::uint64_t mt512;
  std::uint64_t allocs_mt4;
};

const std::map<LockKind, Ceiling>& ceilings() {
  static const std::map<LockKind, Ceiling> m = {
      {LockKind::kGoll, {3456, 204800, 5}},
      {LockKind::kGollCombining, {3456, 228352, 5}},
      {LockKind::kFoll, {4800, 528384, 8}},
      {LockKind::kRoll, {5056, 529408, 8}},
      {LockKind::kKsuh, {896, 75776, 2}},
      {LockKind::kSolarisLike, {256, 256, 1}},
      {LockKind::kMcsRw, {1152, 76800, 2}},
      {LockKind::kBigReader, {704, 75776, 2}},
      {LockKind::kCentral, {1344, 151552, 2}},
      {LockKind::kStdShared, {192, 192, 1}},
      {LockKind::kBravoGoll, {5568, 454656, 7}},
      {LockKind::kBravoFoll, {6656, 754688, 10}},
      {LockKind::kBravoRoll, {6912, 754688, 10}},
      {LockKind::kBravoCentral, {3264, 377856, 4}},
      {LockKind::kOptGoll, {3776, 228352, 5}},
      {LockKind::kOptBravoGoll, {5632, 409600, 7}},
      {LockKind::kOptCentral, {1408, 151552, 2}},
  };
  return m;
}

TEST(Footprint, EveryKindUnderItsCeiling) {
  for (LockKind kind : all_lock_kinds()) {
    const auto it = ceilings().find(kind);
    ASSERT_NE(it, ceilings().end()) << lock_kind_name(kind);
    const Construction mt4 = construction(kind, 4);
    const Construction mt512 = construction(kind, 512);
    EXPECT_LE(mt4.bytes, it->second.mt4) << lock_kind_name(kind) << " at 4";
    EXPECT_LE(mt512.bytes, it->second.mt512)
        << lock_kind_name(kind) << " at 512";
    EXPECT_LE(mt4.allocs, it->second.allocs_mt4) << lock_kind_name(kind);
  }
}

// Empty delegated section for untimed_ops' with_write.
void nothing(void*) {}

// A handful of uncontended operations of every shape, with latency timing
// and the census off: none of them may publish a lazy block.  Reading the
// stats and the census must not publish one either.
void untimed_ops(AnyRwLock& l) {
  for (int i = 0; i < 16; ++i) {
    l.lock_shared();
    l.unlock_shared();
    l.lock();
    l.unlock();
  }
  if (l.try_lock_for(std::chrono::milliseconds(1))) l.unlock();
  if (l.try_lock_shared_for(std::chrono::milliseconds(1))) l.unlock_shared();
  if (l.supports_optimistic()) {
    const std::uint64_t s = l.opt_read_begin();
    (void)l.opt_read_validate(s);
    l.count_opt_fallback();
  }
  l.with_write(&nothing, nullptr);
  (void)l.stats();
  if (l.census() != nullptr) (void)l.census()->snapshot(0);
}

TEST(Footprint, UncontendedUntimedOpsPublishNoLazyBlock) {
  ASSERT_FALSE(latency_timing_enabled());
  ASSERT_FALSE(registry_census_enabled());
  for (LockKind kind : all_lock_kinds()) {
    LockFactoryOptions o;
    o.max_threads = 4;
    o.register_lock = false;
    auto lock = make_rwlock(kind, o);
    const std::uint64_t before = lazy_blocks_published();
    untimed_ops(*lock);
    EXPECT_EQ(lazy_blocks_published(), before)
        << lock_kind_name(kind) << " allocated a lazy block untimed";
#if OLL_TRACE
    latency_timing_enable();
    untimed_ops(*lock);
    latency_timing_disable();
    const LockStatsSnapshot s = lock->stats();
    if (s.read_acquire.count + s.write_acquire.count != 0) {
      // A kind that keeps LockStats recorded, so it published its block(s).
      EXPECT_GT(lazy_blocks_published(), before)
          << lock_kind_name(kind);
    }
#endif
  }
}

// The TATAS metalock keeps no per-thread nodes, so the queued reader's
// trip through it publishes nothing and the histogram block is the only
// one the process-wide count can see.
TEST(Footprint, ParkRecordPublishesHistogramBlock) {
  GollOptions o;
  o.max_threads = 4;
  o.wait_strategy = WaitStrategy::kSpinThenPark;
  o.metalock.kind = MetalockKind::kTatas;
  GollLock<> lock(o);
  const std::uint64_t before = lazy_blocks_published();
  lock.lock();
  std::thread reader([&] {
    lock.lock_shared();
    lock.unlock_shared();
  });
  // Long enough to exhaust any adaptive spin budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(lazy_blocks_published(), before);
  lock.unlock();
  reader.join();
  const LockStatsSnapshot s = lock.stats();
  if (s.parks == 0) GTEST_SKIP() << "the reader never parked within 50 ms";
  EXPECT_EQ(lazy_blocks_published(), before + 1);
  EXPECT_EQ(s.park_wait.count, 1u);
  EXPECT_EQ(s.read_acquire.count, 0u);  // timing stayed off
}

// --- hot-word layout ---------------------------------------------------------

struct Member {
  std::string name;
  std::uintptr_t lo;  // first false-sharing range index
  std::uintptr_t hi;  // last false-sharing range index
  LayoutGroup group;
};

template <typename T>
std::vector<Member> layout_of(const T& obj) {
  std::vector<Member> out;
  obj.visit_layout([&](const char* name, const void* addr, std::size_t size,
                       LayoutGroup g) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    out.push_back({name, a / kFalseSharingRange,
                   (a + size - 1) / kFalseSharingRange, g});
  });
  return out;
}

// No two members of different groups may share a false-sharing range.
void expect_groups_disjoint(const std::vector<Member>& ms) {
  for (const Member& a : ms) {
    for (const Member& b : ms) {
      if (a.group == b.group) continue;
      EXPECT_TRUE(a.hi < b.lo || b.hi < a.lo)
          << a.name << " shares a " << kFalseSharingRange << "-byte range with "
          << b.name;
    }
  }
}

static_assert(alignof(CSnzi<>) == kFalseSharingRange);
static_assert(sizeof(CSnzi<>) % kFalseSharingRange == 0);
static_assert(alignof(GollLock<>) == kFalseSharingRange);
static_assert(sizeof(GollLock<>) % kFalseSharingRange == 0);

TEST(Layout, CSnziRootHasItsOwnRange) {
  CSnziOptions o;
  o.max_threads = 4;
  auto c = std::make_unique<CSnzi<>>(o);
  expect_groups_disjoint(layout_of(*c));
}

TEST(Layout, GollHotWordsAvoidReadMostlyFields) {
  for (bool combine : {false, true}) {
    GollOptions o;
    o.max_threads = 4;
    o.combine = combine;
    auto g = std::make_unique<GollLock<>>(o);
    expect_groups_disjoint(layout_of(*g));
  }
}

// The B-tree latch: the GOLL inside opt-bravo-goll's adapter and wrappers,
// allocated at whatever offset the adapter's malloc returns.
TEST(Layout, GollInsideFactoryStackAvoidsReadMostlyFields) {
  LockFactoryOptions o;
  o.max_threads = 4;
  o.register_lock = false;
  auto any = make_rwlock(LockKind::kOptBravoGoll, o);
  auto* adapter = dynamic_cast<
      RwLockAdapter<VersionedRwLock<Bravo<GollLock<>>>>*>(any.get());
  ASSERT_NE(adapter, nullptr);
  expect_groups_disjoint(
      layout_of(adapter->underlying().underlying().underlying()));
  auto goll = make_rwlock(LockKind::kGoll, o);
  auto* plain = dynamic_cast<RwLockAdapter<GollLock<>>*>(goll.get());
  ASSERT_NE(plain, nullptr);
  expect_groups_disjoint(layout_of(plain->underlying()));
}

// The root and the writer-side group must not share a range either: a
// queued writer's has_waiters_ store would otherwise invalidate the root
// line every reader arrival CASes.
TEST(Layout, RootAndWriterGroupAreSeparate) {
  GollLock<> g(GollOptions{});
  std::uintptr_t root_hi = 0;
  std::uintptr_t writer_lo = ~std::uintptr_t{0};
  for (const Member& m : layout_of(g)) {
    if (m.group == LayoutGroup::kCSnziRoot && m.hi > root_hi) root_hi = m.hi;
    if (m.group == LayoutGroup::kWriterSide && m.lo < writer_lo) {
      writer_lo = m.lo;
    }
  }
  EXPECT_LT(root_hi, writer_lo);
}

}  // namespace
}  // namespace oll

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--print") == 0) {
    for (oll::LockKind kind : oll::all_lock_kinds()) {
      const std::string key = oll::bench_key(kind);
      const oll::Ceiling& c = oll::ceilings().at(kind);
      for (std::uint32_t mt : {4u, 512u}) {
        std::printf("footprint.%s.bytes_mt%u %llu %llu\n", key.c_str(), mt,
                    static_cast<unsigned long long>(
                        oll::construction(kind, mt).bytes),
                    static_cast<unsigned long long>(mt == 4 ? c.mt4
                                                            : c.mt512));
      }
      std::printf("footprint.%s.allocs_mt4 %llu %llu\n", key.c_str(),
                  static_cast<unsigned long long>(
                      oll::construction(kind, 4).allocs),
                  static_cast<unsigned long long>(c.allocs_mt4));
    }
    return 0;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
