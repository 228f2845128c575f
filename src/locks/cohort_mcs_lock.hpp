// Scalable metalocks for the OLL wait-queue slow paths.
//
// The seed protected the GOLL (and Solaris-like) wait queue with a TATAS
// spinlock: every contended writer spins with an exchange on one shared
// cacheline, so the metalock word ping-pongs across sockets exactly like the
// central lockword the paper is trying to kill (§3.1).  This file provides
// the replacements, selectable at runtime for ablation (MetalockKind):
//
//   kTatas   — the seed's test-and-test-and-set lock (locks/tatas_lock.hpp).
//   kMcs     — local-spin MCS queue lock: each waiter spins on a flag in its
//              own cache-line-padded, per-thread node; a release writes one
//              remote line (the successor's flag) instead of invalidating
//              every spinner.
//   kCohort  — lock cohorting (Dice, Marathe & Shavit, PPoPP'12) over two
//              MCS levels: one local MCS lock per last-level-cache domain
//              plus one global MCS lock arbitrating between domains.  A
//              releasing holder passes global ownership directly to a waiter
//              in its own LLC domain (the lock word, wait-queue head and
//              C-SNZI root all stay in that domain's cache) for up to
//              `cohort_budget` consecutive intra-domain handoffs, then
//              releases the global lock so the next domain in FIFO order
//              runs — bounding cross-domain waiter starvation.
//
// Lock-cohorting correctness requirements and how they are met here:
//   * The global lock must be thread-oblivious (acquired by one thread of a
//     domain, released by another): the global MCS queue node is owned by
//     the *domain*, not the thread — it lives in the Domain record, and the
//     local lock guarantees at most one thread per domain is at the global
//     level at a time.
//   * The local lock must detect contention cheaply ("alone?"): MCS does,
//     via the node's next pointer / tail check.
//
// All three are BasicLockable (lock/unlock, no arguments) so
// std::lock_guard applies; queue nodes are internal per-thread slots.  None
// are reentrant, and a thread may not interleave two acquisitions of the
// *same* metalock instance — the usage pattern of a metalock critical
// section (short, no callouts) guarantees this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>

#include "platform/assert.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/park.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "locks/per_thread.hpp"
#include "locks/tatas_lock.hpp"
#include "locks/wait_queue.hpp"

namespace oll {

enum class MetalockKind : std::uint8_t { kTatas, kMcs, kCohort };

inline const char* metalock_kind_name(MetalockKind k) {
  switch (k) {
    case MetalockKind::kTatas: return "tatas";
    case MetalockKind::kMcs: return "mcs";
    case MetalockKind::kCohort: return "cohort";
  }
  return "?";
}

// Parses the names used by bench flags: tatas|mcs|cohort.
inline std::optional<MetalockKind> parse_metalock_kind(std::string_view s) {
  if (s == "tatas") return MetalockKind::kTatas;
  if (s == "mcs") return MetalockKind::kMcs;
  if (s == "cohort") return MetalockKind::kCohort;
  return std::nullopt;
}

struct MetalockOptions {
  MetalockKind kind = MetalockKind::kCohort;
  // 0 => inherit the owning lock's max_threads (locks resolve this before
  // constructing the metalock).
  std::uint32_t max_threads = 0;
  // kCohort: consecutive intra-domain handoffs before the holder must
  // release the global lock (FIFO across domains).  The same budget bounds
  // the wait queue's domain-preferring writer wake policy (wait_queue.hpp).
  std::uint32_t cohort_budget = 32;
  // Domain source for kCohort; nullptr means Topology::system().  The
  // simulator passes its synthetic T5440 shape.  Must outlive the lock.
  const Topology* topology = nullptr;
  // kTatas backoff tuning.
  BackoffParams backoff{};
  // How queued metalock waiters block on their node flag (kMcs / kCohort
  // local + global queues; kTatas keeps backoff).  kSpinThenPark uses the
  // parking substrate (platform/park.hpp, DESIGN.md §16); kBlocking
  // degrades to kSpin.  The owning lock forwards its own wait policy here.
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

// Handoff counters for the cohort metalock; aggregated into
// LockStatsSnapshot by the owning lock.  handoffs counts every direct
// ownership transfer to a queued metalock waiter; cohort_hits the subset
// that stayed inside the releasing holder's LLC domain; cross_domain the
// global-lock releases that passed ownership to another domain's leader.
struct MetalockStatsSnapshot {
  std::uint64_t handoffs = 0;
  std::uint64_t cohort_hits = 0;
  std::uint64_t cross_domain = 0;

  MetalockStatsSnapshot& operator+=(const MetalockStatsSnapshot& o) {
    handoffs += o.handoffs;
    cohort_hits += o.cohort_hits;
    cross_domain += o.cross_domain;
    return *this;
  }
  MetalockStatsSnapshot& operator-=(const MetalockStatsSnapshot& o) {
    handoffs -= o.handoffs;
    cohort_hits -= o.cohort_hits;
    cross_domain -= o.cross_domain;
    return *this;
  }
};

// MCS queue lock with internal per-thread nodes, making it BasicLockable
// (locks/mcs_lock.hpp exposes the node-passing variant).  Non-reentrant.
template <typename M = RealMemory>
class McsMetalock {
 public:
  explicit McsMetalock(std::uint32_t max_threads, bool use_park = false)
      : use_park_(kParkable && use_park), nodes_(max_threads) {}

  McsMetalock(const McsMetalock&) = delete;
  McsMetalock& operator=(const McsMetalock&) = delete;

  void lock() noexcept {
    QNode& me = nodes_.local();
    me.next.store(nullptr, std::memory_order_relaxed);
    me.locked.store(1, std::memory_order_relaxed);
    QNode* pred = tail_.exchange(&me, std::memory_order_acq_rel);
    if (pred == nullptr) return;
    pred->next.store(&me, std::memory_order_release);
    if constexpr (kParkable) {
      if (use_park_) {
        (void)park_wait_u32(me.locked, /*wait_val=*/1, kParkedSpin);
        return;
      }
    }
    spin_until(
        [&] { return me.locked.load(std::memory_order_acquire) == 0; });
  }

  void unlock() noexcept {
    QNode& me = nodes_.local();
    QNode* succ = me.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      QNode* expected = &me;
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;
      }
      spin_until([&] {
        succ = me.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
    }
    fault_perturb(FaultSite::kQueueHandoff);
    if constexpr (kParkable) {
      if (use_park_) {
        (void)park_grant_u32(succ->locked, /*grant_val=*/0, kParkedSpin,
                             /*all=*/false);
        return;
      }
    }
    succ->locked.store(0, std::memory_order_release);
  }

 private:
  // Parked marker for the single-waiter locked flag (values 0/1 in the
  // seed; 3 for uniformity with the queue locks' kParkedSpin).
  static constexpr std::uint32_t kParkedSpin = 3;
  static constexpr bool kParkable =
      std::is_same_v<typename M::template Atomic<std::uint32_t>,
                     std::atomic<std::uint32_t>>;

  struct alignas(kFalseSharingRange) QNode {
    typename M::template Atomic<QNode*> next{nullptr};
    typename M::template Atomic<std::uint32_t> locked{0};
  };

  const bool use_park_;
  typename M::template Atomic<QNode*> tail_{nullptr};
  char pad_[kFalseSharingRange - sizeof(void*)];
  PerThreadSlots<QNode> nodes_;
};

// Two-level cohort MCS lock (see file comment).  BasicLockable,
// non-reentrant.
template <typename M = RealMemory>
class CohortMcsLock {
 public:
  explicit CohortMcsLock(const MetalockOptions& opts)
      : budget_(opts.cohort_budget),
        dmap_(opts.topology != nullptr ? opts.topology : &Topology::system()),
        use_park_(kParkable &&
                  opts.wait_policy == WaitPolicy::kSpinThenPark),
        nodes_(opts.max_threads != 0 ? opts.max_threads : 512) {
    domains_ = std::make_unique<Domain[]>(dmap_.domains());
    // One LLC domain (or all participating threads mapped into one): the
    // global level arbitrates between nobody, and intra-domain handoffs are
    // globally FIFO-fair, so the budget bounds nothing.  Degrade to the
    // plain local MCS queue — same op count as McsMetalock — instead of
    // paying the two-level protocol for no locality gain.
    single_domain_ = dmap_.domains() <= 1;
  }

  CohortMcsLock(const CohortMcsLock&) = delete;
  CohortMcsLock& operator=(const CohortMcsLock&) = delete;

  void lock() noexcept {
    QNode& me = nodes_.local();
    Domain& d = domains_[dmap_.domain_of(this_thread_index())];
    // Uncontended bypass: one CAS takes the global lock directly through
    // this thread's own global node, so the two-level protocol costs no
    // more than a plain MCS lock until there is contention to amortize it.
    // CAS-from-null never overtakes a queued domain; a local waiter
    // arriving during the bypass elects itself domain leader (null local
    // tail) and queues globally behind our node — exactly as if we were
    // another domain — and its presence makes the global tail non-null,
    // which shuts the bypass off until the queues drain.
    if (!single_domain_) {
      me.gnode.next.store(nullptr, std::memory_order_relaxed);
      GNode* free_tail = nullptr;
      // Injectable CAS failure is legal here: losing the bypass race just
      // falls through to the queued path.
      if (!fault_cas_fail(FaultSite::kCasRetry) &&
          gtail_.compare_exchange_strong(free_tail, &me.gnode,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        me.bypass = true;
        return;
      }
    }
    me.next.store(nullptr, std::memory_order_relaxed);
    me.status.store(kWait, std::memory_order_relaxed);
    QNode* pred = d.tail.exchange(&me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      pred->next.store(&me, std::memory_order_release);
      // Local spin: the flag lives in this thread's own padded node.
      std::uint32_t st;
      if constexpr (kParkable) {
        if (use_park_) {
          st = park_wait_u32(me.status, kWait, kParkedSpin);
        } else {
          spin_until([&] {
            return me.status.load(std::memory_order_acquire) != kWait;
          });
          st = me.status.load(std::memory_order_relaxed);
        }
      } else {
        spin_until([&] {
          return me.status.load(std::memory_order_acquire) != kWait;
        });
        st = me.status.load(std::memory_order_relaxed);
      }
      if (st == kCohortGrant) {
        return;  // predecessor passed us the global lock within the domain
      }
      // kAcquireGlobal: predecessor exhausted the budget (or left alone);
      // we are the new domain leader and must take the global lock.
    }
    if (single_domain_) return;  // the local queue IS the lock
    global_lock(d.gnode);
    d.handoffs_left = budget_;
  }

  void unlock() noexcept {
    QNode& me = nodes_.local();
    Domain& d = domains_[dmap_.domain_of(this_thread_index())];
    if (me.bypass) {
      me.bypass = false;
      global_unlock(me.gnode, d);
      return;
    }
    QNode* succ = me.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      // Possibly alone in the local queue.  Release the global lock FIRST:
      // the domain's global node must be out of the global queue before any
      // new local leader can re-enqueue it (a leader can only appear after
      // we either detach below or grant kAcquireGlobal, both of which come
      // after this release).
      if (!single_domain_) global_unlock(d.gnode, d);
      QNode* expected = &me;
      if (d.tail.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;
      }
      // A local waiter FASed the tail but has not linked yet.
      spin_until([&] {
        succ = me.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
      fault_perturb(FaultSite::kQueueHandoff);
      if (single_domain_) bump(d.handoffs), bump(d.cohort_hits);
      grant_status(succ, single_domain_ ? kCohortGrant : kAcquireGlobal);
      return;
    }
    if (single_domain_) {
      // Degenerate single-domain mode: FIFO pass, no global level, no
      // budget (there is no other domain to starve).
      bump(d.handoffs);
      bump(d.cohort_hits);
      grant_status(succ, kCohortGrant);
      return;
    }
    if (d.handoffs_left > 0) {
      // Intra-domain pass: the successor inherits the global lock without
      // any global-queue traffic.
      --d.handoffs_left;
      bump(d.handoffs);
      bump(d.cohort_hits);
      fault_perturb(FaultSite::kQueueHandoff);
      grant_status(succ, kCohortGrant);
      return;
    }
    // Budget exhausted: FIFO across domains.  Release the global lock (the
    // next domain's leader, if any, is granted inside) and make the local
    // successor re-acquire it behind that domain.
    global_unlock(d.gnode, d);
    grant_status(succ, kAcquireGlobal);
  }

  std::uint32_t domains() const { return dmap_.domains(); }

  MetalockStatsSnapshot stats() const {
    MetalockStatsSnapshot s;
    for (std::uint32_t i = 0; i < dmap_.domains(); ++i) {
      const Domain& d = domains_[i];
      s.handoffs += d.handoffs.load(std::memory_order_relaxed);
      s.cohort_hits += d.cohort_hits.load(std::memory_order_relaxed);
      s.cross_domain += d.cross_domain.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  // Local-queue grant states.  kWait must be zero-initializable.
  enum Status : std::uint32_t { kWait = 0, kCohortGrant = 1, kAcquireGlobal = 2 };

  // Parked marker: must collide with neither the status values above nor
  // GNode.locked's 0/1 (kParkedSpin == 3 clears both).
  static constexpr std::uint32_t kParkedSpin = 3;
  static constexpr bool kParkable =
      std::is_same_v<typename M::template Atomic<std::uint32_t>,
                     std::atomic<std::uint32_t>>;

  struct alignas(kFalseSharingRange) GNode {
    typename M::template Atomic<GNode*> next{nullptr};
    typename M::template Atomic<std::uint32_t> locked{0};
  };

  struct alignas(kFalseSharingRange) QNode {
    typename M::template Atomic<QNode*> next{nullptr};
    typename M::template Atomic<std::uint32_t> status{kWait};
    // Uncontended-bypass state: `gnode` is this thread's own global queue
    // node (distinct from the domain-owned one), `bypass` records which
    // release path to take.  Thread-private, so a plain bool suffices.
    GNode gnode;
    bool bypass = false;
  };

  struct alignas(kFalseSharingRange) Domain {
    typename M::template Atomic<QNode*> tail{nullptr};
    // Domain-owned global queue node: enqueued by the domain's leader,
    // released by whichever domain thread ends the cohort (the global lock
    // is thread-oblivious by construction).
    GNode gnode;
    // Remaining intra-domain handoffs; written only while the cohort lock
    // is held by a thread of this domain (handoff ordering publishes it).
    std::uint32_t handoffs_left = 0;
    // Handoff counters: single writer at a time (the holder), concurrent
    // relaxed readers (stats); std::atomic keeps them out of the simulated
    // cost model, like LockStats.  Every bump happens before the grant that
    // ends the bumping thread's ownership, so the next holder's bumps are
    // ordered after it by the handoff.
    std::atomic<std::uint64_t> handoffs{0};
    std::atomic<std::uint64_t> cohort_hits{0};
    std::atomic<std::uint64_t> cross_domain{0};
  };

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Grant a local-queue successor's status flag; the park-aware exchange
  // wakes a sleeping waiter (one per QNode — unpark_one).
  void grant_status(QNode* succ, std::uint32_t grant) noexcept {
    if constexpr (kParkable) {
      if (use_park_) {
        (void)park_grant_u32(succ->status, grant, kParkedSpin,
                             /*all=*/false);
        return;
      }
    }
    succ->status.store(grant, std::memory_order_release);
  }

  void global_lock(GNode& n) noexcept {
    n.next.store(nullptr, std::memory_order_relaxed);
    n.locked.store(1, std::memory_order_relaxed);
    GNode* pred = gtail_.exchange(&n, std::memory_order_acq_rel);
    if (pred == nullptr) return;
    pred->next.store(&n, std::memory_order_release);
    if constexpr (kParkable) {
      if (use_park_) {
        (void)park_wait_u32(n.locked, /*wait_val=*/1, kParkedSpin);
        return;
      }
    }
    spin_until(
        [&] { return n.locked.load(std::memory_order_acquire) == 0; });
  }

  // Passes the global lock to the next domain's leader, or frees it when
  // the global queue is empty.  A pass to another domain is counted in
  // `d` (the releasing holder's domain) before the grant: once the grant
  // is out, the next holder may be counting in the same Domain.
  void global_unlock(GNode& n, Domain& d) noexcept {
    GNode* succ = n.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      GNode* expected = &n;
      if (gtail_.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;
      }
      spin_until([&] {
        succ = n.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
    }
    bump(d.cross_domain);
    bump(d.handoffs);
    fault_perturb(FaultSite::kQueueHandoff);
    if constexpr (kParkable) {
      if (use_park_) {
        (void)park_grant_u32(succ->locked, /*grant_val=*/0, kParkedSpin,
                             /*all=*/false);
        return;
      }
    }
    succ->locked.store(0, std::memory_order_release);
  }

  std::uint32_t budget_;
  DomainMap dmap_;
  const bool use_park_;
  bool single_domain_ = false;
  typename M::template Atomic<GNode*> gtail_{nullptr};
  char pad_[kFalseSharingRange - sizeof(void*)];
  PerThreadSlots<QNode> nodes_;
  std::unique_ptr<Domain[]> domains_;
};

// Runtime-selectable metalock: constructs exactly one of the three
// implementations and dispatches on the kind.  The switch costs one
// predictable branch on a path that is, by definition, already contended.
template <typename M = RealMemory>
class Metalock {
 public:
  explicit Metalock(const MetalockOptions& opts = {}) : kind_(opts.kind) {
    MetalockOptions o = opts;
    if (o.max_threads == 0) o.max_threads = 512;
    switch (kind_) {
      case MetalockKind::kTatas:
        tatas_ = std::make_unique<TatasLock<M>>(o.backoff);
        break;
      case MetalockKind::kMcs:
        mcs_ = std::make_unique<McsMetalock<M>>(
            o.max_threads, o.wait_policy == WaitPolicy::kSpinThenPark);
        break;
      case MetalockKind::kCohort:
        cohort_ = std::make_unique<CohortMcsLock<M>>(o);
        break;
    }
  }

  Metalock(const Metalock&) = delete;
  Metalock& operator=(const Metalock&) = delete;

  void lock() noexcept {
    switch (kind_) {
      case MetalockKind::kTatas: tatas_->lock(); return;
      case MetalockKind::kMcs: mcs_->lock(); return;
      case MetalockKind::kCohort: cohort_->lock(); return;
    }
  }

  void unlock() noexcept {
    switch (kind_) {
      case MetalockKind::kTatas: tatas_->unlock(); return;
      case MetalockKind::kMcs: mcs_->unlock(); return;
      case MetalockKind::kCohort: cohort_->unlock(); return;
    }
  }

  MetalockKind kind() const noexcept { return kind_; }

  // Zeros unless kCohort (the other kinds have no handoff structure).
  MetalockStatsSnapshot stats() const {
    return cohort_ != nullptr ? cohort_->stats() : MetalockStatsSnapshot{};
  }

 private:
  MetalockKind kind_;
  std::unique_ptr<TatasLock<M>> tatas_;
  std::unique_ptr<McsMetalock<M>> mcs_;
  std::unique_ptr<CohortMcsLock<M>> cohort_;
};

}  // namespace oll
