// Runtime-polymorphic lock handles and a factory keyed by lock kind/name.
//
// The benchmark harness and the conformance tests sweep over every lock in
// the library at runtime; AnyRwLock type-erases the SharedLockable interface
// (one virtual call per operation — fine for tests and for the harness,
// which reports both virtual and direct-template numbers; the Figure 5
// benches use the direct templates).
#pragma once

#include <array>
#include <chrono>
#include <concepts>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/rwlock_concepts.hpp"
#include "locks/lock_stats.hpp"
#include "locks/timed.hpp"
#include "locks/big_reader_rwlock.hpp"
#include "locks/bravo.hpp"
#include "locks/central_rwlock.hpp"
#include "locks/foll_lock.hpp"
#include "locks/goll_lock.hpp"
#include "locks/ksuh_rwlock.hpp"
#include "locks/mcs_rwlock.hpp"
#include "locks/roll_lock.hpp"
#include "locks/solaris_rwlock.hpp"
#include "locks/versioned_rwlock.hpp"
#include "platform/lock_registry.hpp"
#include "platform/memory.hpp"

namespace oll {

enum class LockKind {
  kGoll,
  // GOLL with the flat-combining/delegation writer mode enabled
  // (locks/combining.hpp, DESIGN.md §15).  with_write() delegates; plain
  // lock()/unlock() writers still drain the pool.
  kGollCombining,
  kFoll,
  kRoll,
  kKsuh,
  kSolarisLike,
  kMcsRw,
  kBigReader,
  kCentral,
  kStdShared,  // std::shared_mutex; RealMemory builds only
  // BRAVO reader-bias wrapper (locks/bravo.hpp) over selected backends.
  kBravoGoll,
  kBravoFoll,
  kBravoRoll,
  kBravoCentral,
  // Optimistic read mode (locks/versioned_rwlock.hpp) over selected
  // backends; opt-bravo-goll stacks it on the BRAVO wrap, so pessimistic
  // fallback readers still get the bias fast path.
  kOptGoll,
  kOptBravoGoll,
  kOptCentral,
};

// One row per kind: the display name (bench output, registry, BENCH_*.json
// keys) and the extra spellings parse_lock_kind accepts.  Rows follow the
// enum order, which is also all_lock_kinds()'s sweep order.
struct LockKindName {
  LockKind kind;
  const char* name;
  std::array<std::string_view, 2> aliases;
};

inline constexpr LockKindName kLockKindNames[] = {
    {LockKind::kGoll, "GOLL", {"goll"}},
    {LockKind::kGollCombining, "GOLL-combining", {"goll-combining"}},
    {LockKind::kFoll, "FOLL", {"foll"}},
    {LockKind::kRoll, "ROLL", {"roll"}},
    {LockKind::kKsuh, "KSUH", {"ksuh"}},
    {LockKind::kSolarisLike, "Solaris-like", {"solaris", "solaris-like"}},
    {LockKind::kMcsRw, "MCS-RW", {"mcs-rw", "mcsrw"}},
    {LockKind::kBigReader, "BigReader", {"bigreader", "big-reader"}},
    {LockKind::kCentral, "Central", {"central"}},
    {LockKind::kStdShared, "std::shared_mutex", {"std", "shared_mutex"}},
    {LockKind::kBravoGoll, "BRAVO-GOLL", {"bravo-goll"}},
    {LockKind::kBravoFoll, "BRAVO-FOLL", {"bravo-foll"}},
    {LockKind::kBravoRoll, "BRAVO-ROLL", {"bravo-roll"}},
    {LockKind::kBravoCentral, "BRAVO-Central", {"bravo-central"}},
    {LockKind::kOptGoll, "OPT-GOLL", {"opt-goll"}},
    {LockKind::kOptBravoGoll, "OPT-BRAVO-GOLL", {"opt-bravo-goll"}},
    {LockKind::kOptCentral, "OPT-Central", {"opt-central"}},
};

inline const char* lock_kind_name(LockKind k) {
  for (const LockKindName& e : kLockKindNames) {
    if (e.kind == k) return e.name;
  }
  return "?";
}

inline std::optional<LockKind> parse_lock_kind(std::string_view s) {
  if (s.empty()) return std::nullopt;  // unused alias slots are empty
  for (const LockKindName& e : kLockKindNames) {
    if (s == e.name || s == e.aliases[0] || s == e.aliases[1]) return e.kind;
  }
  return std::nullopt;
}

// The five locks the paper's Figure 5 plots, in its legend order.
inline std::vector<LockKind> figure5_lock_kinds() {
  return {LockKind::kGoll, LockKind::kFoll, LockKind::kRoll, LockKind::kKsuh,
          LockKind::kSolarisLike};
}

inline std::vector<LockKind> all_lock_kinds() {
  std::vector<LockKind> kinds;
  for (const LockKindName& e : kLockKindNames) kinds.push_back(e.kind);
  return kinds;
}

// The BRAVO-wrapped variants, for sweeps comparing bias on/off.
inline std::vector<LockKind> bravo_lock_kinds() {
  return {LockKind::kBravoGoll, LockKind::kBravoFoll, LockKind::kBravoRoll,
          LockKind::kBravoCentral};
}

// The kinds with an optimistic read mode (VersionedRwLock wraps).
inline std::vector<LockKind> opt_lock_kinds() {
  return {LockKind::kOptGoll, LockKind::kOptBravoGoll, LockKind::kOptCentral};
}

class AnyRwLock {
 public:
  virtual ~AnyRwLock() = default;
  virtual void lock() = 0;
  virtual void unlock() = 0;
  virtual void lock_shared() = 0;
  virtual void unlock_shared() = 0;
  // Non-blocking and timed acquisition (DESIGN.md §11).  Every factory lock
  // implements these natively; the adapter's fallbacks (spurious false for
  // try_, deadline-bounded retry for timed) keep the erased surface total
  // even for foreign locks without one (e.g. std::shared_mutex has no timed
  // methods).
  virtual bool try_lock() = 0;
  virtual bool try_lock_shared() = 0;
  virtual bool try_lock_for(std::chrono::nanoseconds timeout) = 0;
  virtual bool try_lock_shared_for(std::chrono::nanoseconds timeout) = 0;
  virtual const char* name() const = 0;
  // Optimistic read mode (DESIGN.md §13).  The defaults make every kind
  // total over the erased surface — and make AnyRwLock itself satisfy
  // OptimisticSharedLockable, so OptGuard<AnyRwLock> works: a kind without
  // the mode reports supports_optimistic()==false, begins dead-on-arrival
  // (kInvalidOptStamp) and never validates, which sends any generic retry
  // loop straight to the pessimistic path.
  virtual bool supports_optimistic() const { return false; }
  virtual std::uint64_t opt_read_begin() { return kInvalidOptStamp; }
  virtual bool opt_read_validate(std::uint64_t /*stamp*/) { return false; }
  virtual std::uint32_t opt_max_retries() const { return 0; }
  virtual void count_opt_fallback() {}
  // Delegable exclusive section (DESIGN.md §15): execute fn(ctx) under
  // exclusive ownership.  Combining kinds may run the closure on the
  // current holder's thread (exceptions still propagate to the caller —
  // see core/rwlock_concepts.hpp CombiningLockable); every other kind
  // degrades to acquire-execute-release, so the erased surface is total.
  virtual void with_write(void (*fn)(void*), void* ctx) {
    lock();
    struct Release {
      AnyRwLock& l;
      ~Release() { l.unlock(); }
    } release{*this};
    fn(ctx);
  }
  // Operation counters for locks that keep them (others report zeros);
  // exact at quiescence.
  virtual LockStatsSnapshot stats() const { return {}; }
  // Rebase stats() to zero from here on (baseline subtraction — the lock's
  // own counters keep running).  The harness calls this between the warmup
  // and measured phases; like stats(), exact only at quiescence.
  virtual void reset_stats() {}
  // Holder/waiter attribution (platform/lock_registry.hpp): non-null for
  // adapter-backed locks, null for kinds without census marks.  Marks only
  // flow while some consumer holds registry_census_enable().
  virtual const ContentionCensus* census() const { return nullptr; }
};

// Identity a lock adapter registers under (platform/lock_registry.hpp).
// Implicitly convertible from a bare name so direct RwLockAdapter
// construction keeps working: RwLockAdapter<GollLock<>>("GOLL", opts).
struct AdapterIdentity {
  const char* name;
  const char* kind = nullptr;  // defaults to name
  LockSite site{};             // creation site, when the creator tags one
  bool register_lock = true;   // opt out of the global registry
  std::uint32_t census_threads = 64;  // holder/waiter slots (dense tids)

  AdapterIdentity(const char* n) : name(n) {}  // NOLINT: implicit by design
};

template <SharedLockable L>
class RwLockAdapter final : public AnyRwLock {
 public:
  template <typename... Args>
  explicit RwLockAdapter(AdapterIdentity id, Args&&... args)
      : name_(id.name), impl_(std::forward<Args>(args)...),
        census_(id.census_threads) {
    if (id.register_lock) {
      registration_.emplace(id.name, id.kind != nullptr ? id.kind : id.name,
                            id.site, static_cast<const void*>(this),
                            &RwLockAdapter::registry_stats_thunk, &census_);
    }
  }

  // Every acquisition is bracketed with census marks.  With the census
  // disabled (the default) begin_wait is one relaxed global load and the
  // others key off the thread's own idle slot — a handful of cache-local
  // loads, nothing shared.
  void lock() override {
    census_.begin_wait(/*write=*/true);
    impl_.lock();
    census_.acquired(/*write=*/true);
  }
  void unlock() override {
    census_.released();
    impl_.unlock();
  }
  void lock_shared() override {
    census_.begin_wait(/*write=*/false);
    impl_.lock_shared();
    census_.acquired(/*write=*/false);
  }
  void unlock_shared() override {
    census_.released();
    impl_.unlock_shared();
  }

  bool try_lock() override {
    if constexpr (requires {
                    { impl_.try_lock() } -> std::convertible_to<bool>;
                  }) {
      census_.begin_wait(/*write=*/true);
      const bool ok = impl_.try_lock();
      if (ok) {
        census_.acquired(/*write=*/true);
      } else {
        census_.abandoned();
      }
      return ok;
    } else {
      return false;  // spurious failure is within the try contract
    }
  }

  bool try_lock_shared() override {
    if constexpr (requires {
                    { impl_.try_lock_shared() } -> std::convertible_to<bool>;
                  }) {
      census_.begin_wait(/*write=*/false);
      const bool ok = impl_.try_lock_shared();
      if (ok) {
        census_.acquired(/*write=*/false);
      } else {
        census_.abandoned();
      }
      return ok;
    } else {
      return false;
    }
  }

  bool try_lock_for(std::chrono::nanoseconds timeout) override {
    census_.begin_wait(/*write=*/true);
    bool ok;
    if constexpr (requires {
                    { impl_.try_lock_for(timeout) }
                        -> std::convertible_to<bool>;
                  }) {
      ok = impl_.try_lock_for(timeout);
    } else {
      ok = deadline_retry(std::chrono::steady_clock::now() + timeout,
                          [&] { return try_lock_raw(); });
    }
    if (ok) {
      census_.acquired(/*write=*/true);
    } else {
      census_.abandoned();
    }
    return ok;
  }

  bool try_lock_shared_for(std::chrono::nanoseconds timeout) override {
    census_.begin_wait(/*write=*/false);
    bool ok;
    if constexpr (requires {
                    { impl_.try_lock_shared_for(timeout) }
                        -> std::convertible_to<bool>;
                  }) {
      ok = impl_.try_lock_shared_for(timeout);
    } else {
      ok = deadline_retry(std::chrono::steady_clock::now() + timeout,
                          [&] { return try_lock_shared_raw(); });
    }
    if (ok) {
      census_.acquired(/*write=*/false);
    } else {
      census_.abandoned();
    }
    return ok;
  }

  void with_write(void (*fn)(void*), void* ctx) override {
    if constexpr (CombiningLockable<L>) {
      // No census bracketing: a delegated closure may execute on the
      // holder's thread, so the caller never appears as a holder — marking
      // it acquired here would fabricate a hold interval.
      impl_.with_write(fn, ctx);
    } else {
      census_.begin_wait(/*write=*/true);
      impl_.lock();
      census_.acquired(/*write=*/true);
      struct Release {
        RwLockAdapter& a;
        ~Release() {
          a.census_.released();
          a.impl_.unlock();
        }
      } release{*this};
      fn(ctx);
    }
  }

  bool supports_optimistic() const override {
    return OptimisticSharedLockable<L>;
  }

  std::uint64_t opt_read_begin() override {
    if constexpr (OptimisticSharedLockable<L>) {
      return impl_.opt_read_begin();
    } else {
      return kInvalidOptStamp;
    }
  }

  bool opt_read_validate(std::uint64_t stamp) override {
    if constexpr (OptimisticSharedLockable<L>) {
      return impl_.opt_read_validate(stamp);
    } else {
      return false;
    }
  }

  std::uint32_t opt_max_retries() const override {
    if constexpr (OptimisticSharedLockable<L>) {
      return impl_.opt_max_retries();
    } else {
      return 0;
    }
  }

  void count_opt_fallback() override {
    if constexpr (OptimisticSharedLockable<L>) {
      impl_.count_opt_fallback();
    }
  }

  const char* name() const override { return name_; }
  LockStatsSnapshot stats() const override {
    LockStatsSnapshot s = raw_stats();
    if (const LockStatsSnapshot* b = baseline_.get()) s -= *b;
    return s;
  }
  void reset_stats() override { *baseline_.get_or_publish() = raw_stats(); }
  const ContentionCensus* census() const override { return &census_; }

  L& underlying() { return impl_; }

 private:
  LockStatsSnapshot raw_stats() const {
    if constexpr (requires(const L& l) {
                    { l.stats() } -> std::convertible_to<LockStatsSnapshot>;
                  }) {
      return impl_.stats();
    } else {
      return {};
    }
  }

  // The registry samples raw (never-rebased) counters, so telemetry deltas
  // survive the harness rebasing stats() at phase boundaries.
  static LockStatsSnapshot registry_stats_thunk(const void* obj) {
    return static_cast<const RwLockAdapter*>(obj)->raw_stats();
  }

  // Un-bracketed try paths, for the deadline_retry fallbacks (which manage
  // their own census bracketing around the whole timed call).
  bool try_lock_raw() {
    if constexpr (requires {
                    { impl_.try_lock() } -> std::convertible_to<bool>;
                  }) {
      return impl_.try_lock();
    } else {
      return false;
    }
  }
  bool try_lock_shared_raw() {
    if constexpr (requires {
                    { impl_.try_lock_shared() } -> std::convertible_to<bool>;
                  }) {
      return impl_.try_lock_shared();
    } else {
      return false;
    }
  }

  const char* name_;
  L impl_;
  // The reset_stats() baseline, allocated by the first reset (2.7 KB that
  // a latch nobody rebases never pays for); none means a zero baseline.
  LazyBlock<LockStatsSnapshot> baseline_{1};
  ContentionCensus census_;
  // Declared last: deregistration (which blocks out in-flight registry
  // samplers) must complete before impl_ and census_ are destroyed.
  std::optional<LockRegistration> registration_;
};

struct LockFactoryOptions {
  std::uint32_t max_threads = 512;
  CSnziOptions csnzi{};
  bool readers_coalesce_over_writers = true;
  // How contended waiters block (wait_queue.hpp / DESIGN.md §16): kSpin is
  // the paper's pure-spin evaluation mode; kSpinThenPark bounds the spin
  // and parks on the futex substrate (platform/park.hpp) — the mode for
  // oversubscribed hosts.  Forwarded to every kind that exposes a policy
  // (GOLL family incl. its metalock, FOLL, ROLL, Solaris-like, Central,
  // BRAVO wrappers); kinds without per-waiter words (KSUH, MCS-RW,
  // BigReader, std::shared_mutex) ignore it.
  WaitPolicy wait_policy = WaitPolicy::kSpin;
  // Writer-arbitration metalock for the metalock-based locks (GOLL and its
  // BRAVO wrap): kind, cohort budget, topology (cohort_mcs_lock.hpp).
  MetalockOptions metalock{};
  // Flat-combining/delegation writer mode for the GOLL family (DESIGN.md
  // §15).  kGollCombining forces combine on regardless; these let a sweep
  // toggle it on plain kGoll for ablations (--combine / --combine_budget).
  bool combine = false;
  std::uint32_t combine_budget = 64;
  // Global lock registry (platform/lock_registry.hpp): every factory lock
  // self-registers unless opted out; `site` tags the creation site in
  // telemetry output (pass {__FILE__, __LINE__} or OLL_LOCK_SITE-style).
  bool register_lock = true;
  LockSite site{};
};

inline AdapterIdentity adapter_identity(const char* name,
                                        const LockFactoryOptions& o) {
  AdapterIdentity id(name);
  id.site = o.site;
  id.register_lock = o.register_lock;
  id.census_threads = o.max_threads;
  return id;
}

// Per-backend option builders: the one place each LockFactoryOptions field
// is forwarded to the backend that reads it.
inline GollOptions goll_options(const LockFactoryOptions& o) {
  GollOptions g;
  g.max_threads = o.max_threads;
  g.csnzi = o.csnzi;
  g.readers_coalesce_over_writers = o.readers_coalesce_over_writers;
  g.metalock = o.metalock;
  g.wait_strategy = o.wait_policy;
  g.combine_budget = o.combine_budget;  // read only when combine is set
  return g;
}

inline FollOptions foll_options(const LockFactoryOptions& o) {
  FollOptions f;
  f.max_threads = o.max_threads;
  f.csnzi = o.csnzi;
  f.topology = o.metalock.topology;
  f.wait_policy = o.wait_policy;
  return f;
}

inline RollOptions roll_options(const LockFactoryOptions& o) {
  RollOptions r;
  r.max_threads = o.max_threads;
  r.csnzi = o.csnzi;
  r.topology = o.metalock.topology;
  r.wait_policy = o.wait_policy;
  return r;
}

inline CentralRwOptions central_options(const LockFactoryOptions& o) {
  CentralRwOptions c;
  c.max_threads = o.max_threads;
  c.wait_policy = o.wait_policy;
  return c;
}

inline BravoOptions bravo_options(const LockFactoryOptions& o) {
  BravoOptions b;
  b.max_threads = o.max_threads;
  b.wait_policy = o.wait_policy;
  return b;
}

// Wraps a backend in the adapter, registered under the kind's display name.
template <typename L, typename... Args>
std::unique_ptr<AnyRwLock> make_adapter(LockKind kind,
                                        const LockFactoryOptions& o,
                                        Args&&... args) {
  return std::make_unique<RwLockAdapter<L>>(
      adapter_identity(lock_kind_name(kind), o), std::forward<Args>(args)...);
}

// Construct a lock of the given kind over memory model M.  Returns nullptr
// only for kStdShared under a simulated memory model (std::shared_mutex
// cannot be instrumented).
template <typename M = RealMemory>
std::unique_ptr<AnyRwLock> make_rwlock(LockKind kind,
                                       const LockFactoryOptions& o = {}) {
  switch (kind) {
    case LockKind::kGoll:
    case LockKind::kGollCombining: {
      GollOptions g = goll_options(o);
      g.combine = kind == LockKind::kGollCombining || o.combine;
      return make_adapter<GollLock<M>>(kind, o, g);
    }
    case LockKind::kFoll:
      return make_adapter<FollLock<M>>(kind, o, foll_options(o));
    case LockKind::kRoll:
      return make_adapter<RollLock<M>>(kind, o, roll_options(o));
    case LockKind::kKsuh:
      return make_adapter<KsuhRwLock<M>>(kind, o, KsuhOptions{o.max_threads});
    case LockKind::kSolarisLike:
      return make_adapter<SolarisRwLock<M>>(
          kind, o, SolarisOptions{o.readers_coalesce_over_writers,
                                  o.wait_policy});
    case LockKind::kMcsRw:
      return make_adapter<McsRwLock<M>>(kind, o, McsRwOptions{o.max_threads});
    case LockKind::kBigReader:
      return make_adapter<BigReaderRwLock<M>>(kind, o,
                                              BigReaderOptions{o.max_threads});
    case LockKind::kCentral:
      return make_adapter<CentralRwLock<M>>(kind, o, central_options(o));
    case LockKind::kStdShared:
      if constexpr (std::is_same_v<M, RealMemory>) {
        return make_adapter<std::shared_mutex>(kind, o);
      } else {
        return nullptr;
      }
    case LockKind::kBravoGoll:
      return make_adapter<Bravo<GollLock<M>, M>>(kind, o, bravo_options(o),
                                                 goll_options(o));
    case LockKind::kBravoFoll:
      return make_adapter<Bravo<FollLock<M>, M>>(kind, o, bravo_options(o),
                                                 foll_options(o));
    case LockKind::kBravoRoll:
      return make_adapter<Bravo<RollLock<M>, M>>(kind, o, bravo_options(o),
                                                 roll_options(o));
    case LockKind::kBravoCentral:
      return make_adapter<Bravo<CentralRwLock<M>, M>>(
          kind, o, bravo_options(o), central_options(o));
    case LockKind::kOptGoll:
      return make_adapter<VersionedRwLock<GollLock<M>, M>>(
          kind, o, VersionedOptions{}, goll_options(o));
    case LockKind::kOptBravoGoll:
      return make_adapter<VersionedRwLock<Bravo<GollLock<M>, M>, M>>(
          kind, o, VersionedOptions{}, bravo_options(o), goll_options(o));
    case LockKind::kOptCentral:
      return make_adapter<VersionedRwLock<CentralRwLock<M>, M>>(
          kind, o, VersionedOptions{}, central_options(o));
  }
  return nullptr;
}

}  // namespace oll
