// Bravo<Lock> — BRAVO-style reader bias as a composable lock transformer
// (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks"; see
// PAPERS.md and DESIGN.md §7).
//
// The paper's OLL locks scale readers through C-SNZI trees, but every read
// acquisition still performs at least one RMW on a shared tree node.  BRAVO
// removes even that: while a lock is in reader-bias mode, a reader makes
// itself visible by publishing the lock's address in a private slot of the
// global visible-readers table (platform/visible_readers.hpp) — one CAS on
// a cache line nobody else is actively writing — and never touches the
// underlying lock at all.  A writer first acquires the underlying lock
// (excluding slow-path readers and other writers), then *revokes* the bias:
// it clears the bias flag and scans the table, waiting for every slot that
// holds this lock to drain.  Because revocation costs an O(table) scan, the
// bias is re-enabled only after a timed inhibit window proportional to the
// measured scan cost, so write-heavy phases settle into plain underlying
// behavior and pay the scan at most ~1/(multiplier+1) of the time.
//
// The layer composes with ANY SharedLockable lock: Bravo<GollLock<>>,
// Bravo<CentralRwLock<>>, Bravo<std::shared_mutex>, ...  Correctness
// argument for the publish/revoke race (the only subtle part): the reader
// publishes its slot and THEN re-checks the bias flag; the writer clears
// the flag and THEN scans.  Exactly four accesses are seq_cst (the publish
// CAS, the re-check load, the flag-clearing store, and the first scan load
// of each slot), so in the total order either the reader's re-check
// precedes the writer's clear — then the reader's earlier publication
// precedes the writer's scan load of that slot, and the writer waits for
// it — or the re-check follows the clear, the reader observes bias off,
// reverts its slot and takes the slow path.  Either way no reader is
// invisible to the writer.  Every other rbias_ access is relaxed: writers
// cannot miss a re-arm because re-arming requires holding the underlying
// read lock, which the writer's own acquisition excludes (the underlying
// lock's release/acquire edge publishes the flag), and the fast path's
// first flag read is advisory — the binding decision is the re-check.
//
// Non-recursive (like every lock here): a thread must not read-acquire the
// same Bravo lock twice.  try_upgrade()/downgrade() are deliberately not
// forwarded — a bias-path reader holds no underlying lock to upgrade.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <thread>
#include <utility>

#include "locks/lock_stats.hpp"
#include "locks/per_thread.hpp"
#include "locks/timed.hpp"
#include "locks/wait_queue.hpp"
#include "platform/assert.hpp"
#include "platform/backoff.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/park.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"
#include "platform/trace.hpp"
#include "platform/visible_readers.hpp"

namespace oll {

struct BravoOptions {
  std::uint32_t max_threads = 512;
  // Bias re-enable policy: after a revocation that took S ns of table
  // scanning, keep the bias off until now + multiplier * S (BRAVO's N,
  // default 9 as in the paper) — reads must be able to amortize the next
  // writer's scan before the lock re-biases.
  std::uint32_t inhibit_multiplier = 9;
  bool start_biased = true;
  // Revocation-scan wait bound: once a scan has waited this long for bias
  // readers to drain, the revoke_timeouts stat is bumped (once per scan)
  // and the per-slot wait escalates from exponential backoff to plain
  // yields.  The scan always completes — exclusion cannot be abandoned —
  // this only caps the CPU burned and makes pathological drains visible.
  std::uint64_t revoke_timeout_ns = 5'000'000;
  // Bias readers leave no per-waiter word to park on, so kSpinThenPark
  // affects only the revocation scan: once the drain passes
  // revoke_timeout_ns, the per-slot wait escalates from plain yields to
  // bounded park_briefly naps (censused; predicate-style escalation,
  // DESIGN.md §16.5).  The wrapped lock's own wait_policy is configured on
  // the wrapped lock.  kBlocking degrades to kSpin.
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

template <typename LockT, typename M = RealMemory>
class Bravo {
 public:
  using Underlying = LockT;

  template <typename... Args>
  explicit Bravo(const BravoOptions& opts, Args&&... args)
      : opts_(opts),
        lock_(std::forward<Args>(args)...),
        locals_(opts.max_threads),
        stats_(opts.max_threads),
        rbias_(opts.start_biased ? 1u : 0u) {}

  Bravo() : Bravo(BravoOptions{}) {}

  Bravo(const Bravo&) = delete;
  Bravo& operator=(const Bravo&) = delete;

  // --- reader side --------------------------------------------------------

  // The wrapper runs its own observability timers (distinct `obj` from the
  // underlying lock's), so a trace shows both the BRAVO-level acquisition
  // and — on the slow path — the nested underlying one.
  void lock_shared() {
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    if (!bias_fast_path()) {
      lock_.lock_shared();
      stats_.count_read_fast();
      maybe_rearm_bias();
    }
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) stats_.record_read_acquire(d);
  }

  void unlock_shared() {
    trace_event(TraceEventType::kReadRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    Local& local = locals_.local();
    if (local.slot != nullptr) {
      // Bias path: un-publish.  Release order pairs with the revoking
      // writer's scan load, making the critical section visible to it.
      local.slot->store(nullptr, std::memory_order_release);
      local.slot = nullptr;
      return;
    }
    lock_.unlock_shared();
  }

  bool try_lock_shared()
    requires requires(LockT& l) {
      { l.try_lock_shared() } -> std::convertible_to<bool>;
    }
  {
    if (bias_fast_path()) return true;
    if (!lock_.try_lock_shared()) return false;
    stats_.count_read_fast();
    maybe_rearm_bias();
    return true;
  }

  // --- writer side --------------------------------------------------------

  void lock() {
    // The acquire interval includes the revocation scan: the writer is not
    // exclusive against bias-path readers until the scan drains them.
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    lock_.lock();
    stats_.count_write_fast();
    // relaxed: any re-arm happened under a read lock our acquisition above
    // excludes, so the underlying lock's ordering already published it.
    if (rbias_.load(std::memory_order_relaxed) != 0) revoke_bias();
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) stats_.record_write_acquire(d);
  }

  void unlock() {
    trace_event(TraceEventType::kWriteRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    lock_.unlock();
  }

  bool try_lock()
    requires requires(LockT& l) {
      { l.try_lock() } -> std::convertible_to<bool>;
    }
  {
    if (!lock_.try_lock()) return false;
    stats_.count_write_fast();
    // Revocation after a successful try is not optional and terminates:
    // once the flag is cleared no new bias readers can pass the re-check.
    // relaxed: as in lock() — re-arms are ordered by the underlying lock.
    if (rbias_.load(std::memory_order_relaxed) != 0) revoke_bias();
    return true;
  }

  // --- timed acquisition (deadline-bounded retry over the try paths) ------
  // The writer retry is conservative in the same sense as FOLL's (losing
  // its place each attempt); the reader retry is cheap because the bias
  // fast path makes most attempts a single CAS.

  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d)
    requires requires(Bravo& b) { b.try_lock(); }
  {
    return try_lock_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp)
    requires requires(Bravo& b) { b.try_lock(); }
  {
    const auto deadline = to_steady_deadline(tp);
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    bool ok;
    if constexpr (requires { lock_.try_lock_until(deadline); }) {
      // Delegate the whole deadline: the underlying timed writer can wait
      // in place (and FOLL/ROLL reclaim a drained reader tail, which a
      // bare try_lock retry would starve against forever).
      ok = lock_.try_lock_until(deadline);
      if (ok) {
        stats_.count_write_fast();
        // relaxed: as in lock() — re-arms are ordered by the underlying lock.
        if (rbias_.load(std::memory_order_relaxed) != 0) revoke_bias();
      }
    } else {
      ok = deadline_retry(deadline, [&] { return try_lock(); });
    }
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) {
      stats_.record_timed_acquire(d);
      if (ok) stats_.record_write_acquire(d);
    }
    if (!ok) stats_.count_write_timeout();
    return ok;
  }

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d)
    requires requires(Bravo& b) { b.try_lock_shared(); }
  {
    return try_lock_shared_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_shared_until(
      const std::chrono::time_point<Clock, Duration>& tp)
    requires requires(Bravo& b) { b.try_lock_shared(); }
  {
    const auto deadline = to_steady_deadline(tp);
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    const bool ok = deadline_retry(deadline, [&] { return try_lock_shared(); });
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) {
      stats_.record_timed_acquire(d);
      if (ok) stats_.record_read_acquire(d);
    }
    if (!ok) stats_.count_read_timeout();
    return ok;
  }

  // --- introspection ------------------------------------------------------

  // read_bias counts bias-path reads (no underlying-lock RMW at all);
  // read_fast counts reads that fell through to the underlying lock;
  // bias_revoke counts writer-side revocation scans.  write_fast counts all
  // writer acquisitions (the wrapper cannot see whether the underlying lock
  // queued).  Exact at quiescence.
  LockStatsSnapshot stats() const { return stats_.snapshot(); }

  // The counters stats() reads, for a wrapping layer that counts fields
  // only it writes (VersionedRwLock's opt_*).
  LockStats& lock_stats() { return stats_; }

  bool read_biased() const {
    return rbias_.load(std::memory_order_acquire) != 0;
  }

  Underlying& underlying() { return lock_; }
  const Underlying& underlying() const { return lock_; }

 private:
  using Table = VisibleReadersTable<M>;

  // Publish-then-recheck bias fast path shared by lock_shared and
  // try_lock_shared.  On success the thread's Local remembers the slot so
  // unlock_shared knows no underlying lock is held.
  bool bias_fast_path() {
    Local& local = locals_.local();
    OLL_DCHECK(local.slot == nullptr);  // non-recursive
    // relaxed: advisory early-out only — the binding bias decision is the
    // seq_cst re-check after the publish (the Dekker in the header comment).
    if (rbias_.load(std::memory_order_relaxed) == 0) return false;
    typename Table::Slot& slot =
        global_visible_readers<M>().slot_for(this_thread_index(), this);
    const void* expected = nullptr;
    // A failed CAS means a hash collision (another thread/lock owns the
    // slot): fall back to the underlying lock rather than wait.
    // seq_cst success: the Dekker publish (header comment) — must precede
    // the re-check below in the SC order.  relaxed failure: the observed
    // value is discarded.
    if (!slot.compare_exchange_strong(expected, this,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    // The publish/re-check window is the one subtle race in BRAVO; widen it
    // under fault injection so the fuzzer actually exercises both outcomes.
    fault_perturb(FaultSite::kSpinWait);
    // seq_cst: the Dekker re-check — pairs with revoke_bias()'s clear.
    if (rbias_.load(std::memory_order_seq_cst) != 0) {
      local.slot = &slot;
      stats_.count_read_bias();
      return true;
    }
    // A writer revoked between our publish and re-check: revert and let the
    // underlying lock arbitrate.
    slot.store(nullptr, std::memory_order_release);
    return false;
  }

  // Slow-path readers re-arm the bias once the inhibit window has passed.
  // Called while holding the underlying read lock, so no writer holds the
  // lock; the underlying release/acquire ordering guarantees the next
  // writer observes the flag and revokes.
  void maybe_rearm_bias() {
    if (rbias_.load(std::memory_order_relaxed) == 0 &&
        now_ns() >= inhibit_until_.load(std::memory_order_relaxed)) {
      // relaxed: the flag carries no payload, and the next writer cannot
      // miss it — we hold the underlying read lock, so its release/acquire
      // edge orders this store before that writer's flag check.
      rbias_.store(1, std::memory_order_relaxed);
    }
  }

  // Called with the underlying write lock held.  Clears the flag, then
  // waits for every published bias reader of THIS lock to drain.  New
  // readers cannot re-publish (flag is down, and re-arming requires holding
  // the underlying read lock, which we exclude), so the scan terminates.
  void revoke_bias() {
    stats_.count_bias_revoke();
    trace_event(TraceEventType::kBiasRevoke, this);
    // seq_cst: the Dekker clear — must precede the scan loads below in the
    // SC order so no reader's publish/re-check pair can miss both.
    rbias_.store(0, std::memory_order_seq_cst);
    Table& table = global_visible_readers<M>();
    // For BRAVO the revocation scan is the writer's wait-for-readers-to-
    // drain interval; record it in the writer_wait histogram.
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    const std::uint64_t scan_start = now_ns();
    // Bounded-wait drain (DESIGN.md §11): past revoke_timeout_ns the scan
    // keeps going — it must, exclusion is not abandonable — but stops
    // burning exponential-backoff CPU, yields instead, and records the
    // incident (once per scan) so a reader stuck in its critical section
    // shows up in the revoke_timeouts stat rather than as silent spin.
    const std::uint64_t drain_deadline = scan_start + opts_.revoke_timeout_ns;
    const bool use_park = opts_.wait_policy == WaitPolicy::kSpinThenPark;
    bool timed_out = false;
    std::uint32_t park_round = 0;
    for (std::uint32_t i = 0; i < Table::size(); ++i) {
      typename Table::Slot& slot = table.slot(i);
      // seq_cst: the Dekker scan load — a publish that SC-precedes our
      // clear must be visible here.  Doubles as the acquire that orders a
      // drained reader's critical section before ours.
      if (slot.load(std::memory_order_seq_cst) != this) continue;
      ExponentialBackoff backoff;
      // acquire: only the drain wait — pairs with the reader's release
      // null-store in unlock_shared; seq_cst is not needed once the slot
      // has been observed once.
      while (slot.load(std::memory_order_acquire) == this) {
        fault_perturb(FaultSite::kSpinWait);
        if (!timed_out && now_ns() >= drain_deadline) {
          timed_out = true;
          stats_.count_revoke_timeout();
        }
        if (timed_out) {
          // No reader will wake us (they don't know we wait), so the nap is
          // bounded: grows 50us -> 10ms, re-checking the slot each slice.
          if (use_park) {
            park_briefly(park_round++);
          } else {
            std::this_thread::yield();
          }
        } else {
          backoff.backoff();
        }
      }
    }
    const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
    if (qt.armed) stats_.record_writer_wait(qd);
    const std::uint64_t scan_ns = now_ns() - scan_start;
    inhibit_until_.store(
        now_ns() + scan_ns * opts_.inhibit_multiplier,
        std::memory_order_relaxed);
  }

  struct Local {
    typename Table::Slot* slot = nullptr;  // non-null iff bias path held
  };

  BravoOptions opts_;
  LockT lock_;
  PerThreadSlots<Local> locals_;
  LockStats stats_;
  // rbias_ and inhibit_until_ are wrapper-level state and deliberately kept
  // on M's atomics so fuzz/sim builds perturb and charge them too.
  typename M::template Atomic<std::uint32_t> rbias_;
  typename M::template Atomic<std::uint64_t> inhibit_until_{0};
};

}  // namespace oll
