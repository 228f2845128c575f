// Global lock registry + contention attribution (DESIGN.md §14).
//
// Production lock services need *live* answers to "which locks are hot,
// who is blocking whom, where is the contention coming from" — not the
// post-hoc per-binary stats the harness prints after a sweep.  Three
// cooperating pieces live here:
//
//   * LockRegistry — a process-global, lock-free intrusive list where every
//     factory-created lock (core/factory.hpp) and RwProtected instance
//     self-registers {name, kind, creation site} together with a type-erased
//     raw-stats accessor.  The telemetry exporter (harness/telemetry.hpp)
//     walks it periodically.  Registration nodes are registry-owned and
//     immortal: deregistration marks a node dead and recycles it through a
//     free list, so a snapshot walking the list concurrently with lock
//     destruction never touches freed memory.  A per-node pin count keeps
//     the *lock object* alive while a sampler reads its stats: samplers pin
//     (one fetch_add), deregistration blocks until the pin count drains.
//
//   * ContentionCensus — per-lock holder/waiter attribution: which dense
//     thread holds the write lock, how many threads are waiting (queue
//     depth), and how long the longest waiter has been waiting.  Marks are
//     per-thread cache-aligned slots fed by the AnyRwLock adapter around
//     every acquire/release; they are gated on a process-global enable word
//     (one relaxed load when telemetry is off) and use the *coarse clock*
//     below instead of a syscall so an enabled census costs a few relaxed
//     cache-local stores per acquisition — measured <2% on the uncontended
//     fast path (EXPERIMENTS.md).  The watchdog (harness/watchdog.hpp)
//     reads the census so incident dumps name the lock's holder and queue
//     depth, not just the stuck thread.
//
//   * Acquire-site tags — OLL_LOCK_SITE() registers its file:line once and
//     returns a small site id; ScopedLockSite parks it in a thread-local so
//     trace records (platform/trace.hpp) and census slots carry the call
//     site that initiated the acquisition.  Per-site contention counters
//     are sampled, not per-op: the exporter bumps a site's wait_samples for
//     every waiter observed at a tick, and the census charges a site a
//     `stall` when an acquisition spans a telemetry tick — both zero-cost
//     on the uncontended hot path.
//
// Coarse clock: registry_set_coarse_now() is stored by the telemetry
// exporter (or any census consumer) once per tick; census marks read it
// with one relaxed load.  Waiter ages therefore have tick resolution —
// exactly right for "who has been stuck for seconds", useless for ns
// latencies, which remain the histograms' job.
//
// Compile-out: OLL_REGISTRY=0 (CMake cache variable, mirroring OLL_TRACE)
// turns every type and hook below into an empty inline — no list, no
// census slots, no thread-local, bit-for-bit oblivious binaries.
//
// Concurrency contract: registration/deregistration and sampling are safe
// from any thread, any time (the one blocking edge: deregistration waits
// for in-flight pins on its own node).  That drain loop has no
// forward-progress guarantee of its own: a steady stream of samplers could
// in principle keep a node pinned and starve the destructor.  Samplers
// mitigate this by checking the dead bit before pinning — so only a pin
// that genuinely raced the death can delay a deregistration, and at
// realistic tick rates (>=1ms apart) the drain is one yield at worst.
// Census marks are wait-free.  Stats read through the registry are the
// usual relaxed aggregate — approximate live, exact at quiescence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "locks/lock_stats.hpp"

#ifndef OLL_REGISTRY
#define OLL_REGISTRY 1
#endif

#if OLL_REGISTRY
#include <atomic>
#include <memory>

#include "platform/cache_line.hpp"
#include "platform/thread_id.hpp"
#endif

namespace oll {

// Source location of a lock's creation (or an acquire site).  `file` is
// expected to outlive the process (string literals via __FILE__).
struct LockSite {
  const char* file = nullptr;
  int line = 0;
  bool known() const { return file != nullptr; }
};

// Type-erased accessor for a registered lock's *raw* (never rebased)
// counters.  Raw, because the harness rebases AnyRwLock::stats() at phase
// boundaries and a telemetry delta computed across a rebase would
// underflow; the exporter keeps its own baselines instead.
using RegistryStatsFn = LockStatsSnapshot (*)(const void* obj);

inline constexpr std::uint32_t kNoCensusTid = ~std::uint32_t{0};

// Point-in-time holder/waiter attribution for one lock.
struct CensusSnapshot {
  std::uint32_t waiting_readers = 0;
  std::uint32_t waiting_writers = 0;
  std::uint32_t holding_readers = 0;
  bool write_held = false;
  std::uint32_t writer_tid = kNoCensusTid;  // dense index of the write holder
  std::uint64_t longest_wait_ns = 0;        // coarse-clock resolution
  std::uint32_t longest_waiter_tid = kNoCensusTid;
  std::uint32_t longest_waiter_site = 0;

  std::uint32_t queue_depth() const { return waiting_readers + waiting_writers; }
};

// Everything the exporter learns about one registered lock at one tick.
struct RegisteredLockSample {
  std::uint64_t id = 0;         // unique per registration (reuse gets a new id)
  const char* name = "?";       // user label (factory kind name by default)
  const char* kind = "?";       // lock algorithm name
  LockSite site{};              // creation site, when the creator tagged one
  LockStatsSnapshot stats{};    // raw cumulative counters
  CensusSnapshot census{};
  bool has_census = false;
};

// One acquire site's identity and sampled contention counters.
struct LockSiteSample {
  const char* file = nullptr;
  int line = 0;
  std::uint64_t wait_samples = 0;  // waiters observed here at telemetry ticks
  std::uint64_t stalls = 0;        // acquisitions that spanned >= 1 tick
};

inline constexpr std::uint32_t kMaxLockSites = 512;

// Final raw counters of deregistered locks, aggregated by (name, kind).
// Deregistration reads the lock's stats one last time while the object is
// still alive, so these totals are exact — the telemetry exporter merges
// them with live samples so counters never vanish when a short-lived lock
// dies between ticks.
struct RetiredLockStats {
  std::string name;
  std::string kind;
  std::uint64_t count = 0;  // deregistrations folded into this row
  LockStatsSnapshot stats{};
};

#if OLL_REGISTRY

inline constexpr bool registry_compiled_in() { return true; }

namespace registry_internal {
// Census marks are armed iff this word is nonzero (refcounted by
// registry_census_enable/disable).  Hot-path gate: one relaxed load.
extern std::atomic<std::uint32_t> g_census_on;
// Bumped every time the census flips from disabled to enabled.  Census
// slots stamp the epoch they were marked under; snapshots ignore slots
// from older epochs.  That lets *every* mark — not just begin_wait — gate
// on g_census_on and return without touching its slot while disabled:
// entries stranded by a mid-acquisition disable go stale harmlessly
// instead of needing an unconditional slot write to clean up.
extern std::atomic<std::uint32_t> g_census_epoch;
// Coarse clock (ns) stored once per telemetry tick; 0 = never set.
extern std::atomic<std::uint64_t> g_coarse_now;
extern thread_local std::uint32_t t_current_site;
void note_site_stall(std::uint32_t site);
}  // namespace registry_internal

inline bool registry_census_enabled() {
  return registry_internal::g_census_on.load(std::memory_order_relaxed) != 0;
}

inline std::uint32_t registry_census_epoch() {
  return registry_internal::g_census_epoch.load(std::memory_order_relaxed);
}

inline std::uint64_t registry_coarse_now() {
  return registry_internal::g_coarse_now.load(std::memory_order_relaxed);
}

// Census/site consumers call these: enable is refcounted so the exporter
// and the watchdog can coexist.  Quiescent with respect to nothing — safe
// any time; marks simply start/stop flowing.
void registry_census_enable();
void registry_census_disable();

// Store the coarse clock (the exporter's tick does this; tests too).
void registry_set_coarse_now(std::uint64_t now_ns);

// --- acquire-site tags ----------------------------------------------------

// Register a site once; returns its id in [1, kMaxLockSites], or 0 when the
// table is full (untagged).  Call through OLL_LOCK_SITE(), which caches the
// id in a function-local static.
std::uint32_t register_lock_site(const char* file, int line);

inline std::uint32_t current_lock_site() {
  return registry_internal::t_current_site;
}

// Charge one observed-waiting sample to a site (exporter tick sampling).
void lock_site_add_wait_sample(std::uint32_t site);

// Snapshot of every registered site (index is site id - 1).
std::vector<LockSiteSample> lock_site_table();

// Park a site id in the calling thread's current-site slot for the duration
// of a scope; trace records and census waits emitted inside carry it.
class ScopedLockSite {
 public:
  explicit ScopedLockSite(std::uint32_t site)
      : saved_(registry_internal::t_current_site) {
    registry_internal::t_current_site = site;
  }
  ~ScopedLockSite() { registry_internal::t_current_site = saved_; }
  ScopedLockSite(const ScopedLockSite&) = delete;
  ScopedLockSite& operator=(const ScopedLockSite&) = delete;

 private:
  std::uint32_t saved_;
};

#define OLL_LOCK_SITE()                                                   \
  ([]() -> std::uint32_t {                                                \
    static const std::uint32_t oll_site_id_ =                             \
        ::oll::register_lock_site(__FILE__, __LINE__);                    \
    return oll_site_id_;                                                  \
  }())

// --- per-lock holder/waiter census ----------------------------------------

class ContentionCensus {
 public:
  // One slot per dense thread index; marks from indices >= max_threads are
  // dropped (bound-checked), so a small census under-counts rather than
  // corrupts.
  explicit ContentionCensus(std::uint32_t max_threads)
      : slots_(std::make_unique<CacheAligned<Slot>[]>(max_threads)),
        size_(max_threads) {}

  // Worker-side marks.  All wait-free, and every one of them — not just
  // begin_wait — gates on the global enable word first, so the disabled
  // cost is one relaxed load of a shared read-mostly line per mark and the
  // thread's own slot is never touched.  A mark stranded by a disable
  // mid-acquisition is left in place; the epoch stamp (bumped on every
  // disabled->enabled flip) makes snapshots ignore it.
  void begin_wait(bool write) {
    if (!registry_census_enabled()) return;
    const std::uint32_t idx = this_thread_index();
    if (idx >= size_) return;
    Slot& s = slots_[idx].value;
    s.epoch.store(registry_census_epoch(), std::memory_order_relaxed);
    s.site.store(current_lock_site(), std::memory_order_relaxed);
    s.begin_ns.store(registry_coarse_now(), std::memory_order_relaxed);
    s.state.store(write ? kWaitWrite : kWaitRead, std::memory_order_relaxed);
  }

  void acquired(bool write) {
    if (!registry_census_enabled()) return;
    const std::uint32_t idx = this_thread_index();
    if (idx >= size_) return;
    Slot& s = slots_[idx].value;
    // No begin_wait mark this epoch (the acquisition started before the
    // census was enabled, or the table is too small): don't fabricate a
    // hold with no recorded start.
    if (s.state.load(std::memory_order_relaxed) == kIdle ||
        s.epoch.load(std::memory_order_relaxed) !=
            registry_census_epoch()) {
      return;
    }
    // The acquisition spanned at least one telemetry tick: charge a stall
    // to the acquire site.  Rare by construction (ticks are ~100ms), so the
    // shared-counter RMW inside is off the fast path.
    const std::uint64_t b = s.begin_ns.load(std::memory_order_relaxed);
    if (b != 0 && b != registry_coarse_now()) {
      registry_internal::note_site_stall(
          s.site.load(std::memory_order_relaxed));
    }
    s.begin_ns.store(0, std::memory_order_relaxed);
    s.state.store(write ? kHoldWrite : kHoldRead, std::memory_order_relaxed);
    if (write) {
      writer_.store(pack_writer(idx, registry_census_epoch()),
                    std::memory_order_relaxed);
    }
  }

  void released() {
    if (!registry_census_enabled()) return;
    const std::uint32_t idx = this_thread_index();
    if (idx >= size_) return;
    Slot& s = slots_[idx].value;
    const std::uint32_t st = s.state.load(std::memory_order_relaxed);
    if (st == kIdle) return;
    if (st == kHoldWrite &&
        (writer_.load(std::memory_order_relaxed) & 0xffffffffu) == idx) {
      writer_.store(kNoWriter, std::memory_order_relaxed);
    }
    s.begin_ns.store(0, std::memory_order_relaxed);
    s.state.store(kIdle, std::memory_order_relaxed);
  }

  // A try/timed acquisition that began a wait but failed.
  void abandoned() {
    if (!registry_census_enabled()) return;
    const std::uint32_t idx = this_thread_index();
    if (idx >= size_) return;
    Slot& s = slots_[idx].value;
    if (s.state.load(std::memory_order_relaxed) == kIdle) return;
    s.begin_ns.store(0, std::memory_order_relaxed);
    s.state.store(kIdle, std::memory_order_relaxed);
  }

  // Aggregate the slots.  Approximate under concurrent marks (relaxed
  // loads), which is the point: a census is a sample, not a ledger.
  CensusSnapshot snapshot(std::uint64_t now_ns) const {
    CensusSnapshot out;
    const std::uint32_t epoch = registry_census_epoch();
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Slot& s = slots_[i].value;
      if (s.epoch.load(std::memory_order_relaxed) != epoch) continue;
      const std::uint32_t st = s.state.load(std::memory_order_relaxed);
      switch (st) {
        case kWaitRead:
        case kWaitWrite: {
          if (st == kWaitRead) {
            ++out.waiting_readers;
          } else {
            ++out.waiting_writers;
          }
          const std::uint64_t b = s.begin_ns.load(std::memory_order_relaxed);
          if (b != 0 && now_ns > b) {
            const std::uint64_t age = now_ns - b;
            if (age > out.longest_wait_ns) {
              out.longest_wait_ns = age;
              out.longest_waiter_tid = i;
              out.longest_waiter_site =
                  s.site.load(std::memory_order_relaxed);
            }
          }
          break;
        }
        case kHoldRead:
          ++out.holding_readers;
          break;
        case kHoldWrite:
          out.write_held = true;
          break;
        default:
          break;
      }
    }
    const std::uint64_t w = writer_.load(std::memory_order_relaxed);
    if (w != kNoWriter && (w >> 32) == epoch) {
      out.write_held = true;
      out.writer_tid = static_cast<std::uint32_t>(w & 0xffffffffu);
    }
    return out;
  }

  // Visit every currently-waiting slot: f(tid, site, begin_ns).  The
  // exporter uses this to charge wait samples to acquire sites.
  template <typename F>
  void for_each_waiting(F&& f) const {
    const std::uint32_t epoch = registry_census_epoch();
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Slot& s = slots_[i].value;
      if (s.epoch.load(std::memory_order_relaxed) != epoch) continue;
      const std::uint32_t st = s.state.load(std::memory_order_relaxed);
      if (st != kWaitRead && st != kWaitWrite) continue;
      f(i, s.site.load(std::memory_order_relaxed),
        s.begin_ns.load(std::memory_order_relaxed));
    }
  }

  std::uint32_t size() const { return size_; }

 private:
  enum : std::uint32_t { kIdle = 0, kWaitRead, kWaitWrite, kHoldRead,
                         kHoldWrite };

  struct Slot {
    std::atomic<std::uint64_t> begin_ns{0};  // coarse wait start; 0 = none
    std::atomic<std::uint32_t> state{kIdle};
    std::atomic<std::uint32_t> site{0};
    std::atomic<std::uint32_t> epoch{~std::uint32_t{0}};  // never current
  };

  // Writer identity packed as (epoch << 32) | tid, so a holder stranded by
  // a disable cannot masquerade as the current writer next epoch.
  static constexpr std::uint64_t kNoWriter = ~std::uint64_t{0};
  static std::uint64_t pack_writer(std::uint32_t tid, std::uint32_t epoch) {
    return (static_cast<std::uint64_t>(epoch) << 32) | tid;
  }

  std::unique_ptr<CacheAligned<Slot>[]> slots_;
  std::uint32_t size_;
  std::atomic<std::uint64_t> writer_{kNoWriter};
};

// --- the registry ---------------------------------------------------------

// RAII registration handle.  The holder (RwLockAdapter, RwProtected) must
// destroy it BEFORE the lock object it describes: the destructor blocks
// until concurrent samplers unpin, after which `obj` is never dereferenced
// through the registry again.
class LockRegistration {
 public:
  LockRegistration() = default;  // unregistered (compile-out / opt-out)
  LockRegistration(const char* name, const char* kind, LockSite site,
                   const void* obj, RegistryStatsFn stats_fn,
                   const ContentionCensus* census);
  ~LockRegistration();

  LockRegistration(const LockRegistration&) = delete;
  LockRegistration& operator=(const LockRegistration&) = delete;

  bool registered() const { return node_ != nullptr; }
  std::uint64_t id() const;  // 0 when unregistered

 private:
  void* node_ = nullptr;
};

// Walk the registry, pinning each live node long enough to read its stats
// and census.  `now_ns` feeds waiter-age computation (pass platform
// now_ns(); tests may pass synthetic time).  With `attribute_sites` set,
// every waiter observed during the walk charges one wait sample to its
// acquire site (the exporter's per-site contention sampling).
std::vector<RegisteredLockSample> registry_sample(
    std::uint64_t now_ns, bool attribute_sites = false);

// Snapshot of the deregistered-locks aggregate, sorted by (name, kind).
std::vector<RetiredLockStats> registry_graveyard();

// Currently-registered lock count (approximate under churn).
std::size_t registry_live_count();

// Total registration events since process start (monotonic; test hook for
// the node-recycling path).
std::uint64_t registry_total_registrations();

#else  // OLL_REGISTRY == 0: every hook is an empty inline, no state at all.

inline constexpr bool registry_compiled_in() { return false; }
inline constexpr bool registry_census_enabled() { return false; }
inline constexpr std::uint32_t registry_census_epoch() { return 0; }
inline constexpr std::uint64_t registry_coarse_now() { return 0; }
inline void registry_census_enable() {}
inline void registry_census_disable() {}
inline void registry_set_coarse_now(std::uint64_t) {}
inline std::uint32_t register_lock_site(const char*, int) { return 0; }
inline constexpr std::uint32_t current_lock_site() { return 0; }
inline void lock_site_add_wait_sample(std::uint32_t) {}
inline std::vector<LockSiteSample> lock_site_table() { return {}; }

class ScopedLockSite {
 public:
  explicit ScopedLockSite(std::uint32_t) {}
};

#define OLL_LOCK_SITE() (std::uint32_t{0})

class ContentionCensus {
 public:
  explicit ContentionCensus(std::uint32_t) {}
  void begin_wait(bool) {}
  void acquired(bool) {}
  void released() {}
  void abandoned() {}
  CensusSnapshot snapshot(std::uint64_t) const { return {}; }
  template <typename F>
  void for_each_waiting(F&&) const {}
  std::uint32_t size() const { return 0; }
};

class LockRegistration {
 public:
  LockRegistration() = default;
  LockRegistration(const char*, const char*, LockSite, const void*,
                   RegistryStatsFn, const ContentionCensus*) {}
  bool registered() const { return false; }
  std::uint64_t id() const { return 0; }
};

inline std::vector<RegisteredLockSample> registry_sample(std::uint64_t,
                                                         bool = false) {
  return {};
}
inline std::vector<RetiredLockStats> registry_graveyard() { return {}; }
inline std::size_t registry_live_count() { return 0; }
inline std::uint64_t registry_total_registrations() { return 0; }

#endif  // OLL_REGISTRY

}  // namespace oll
