// GOLL — the General OLL reader-writer lock (paper §3.2, Figure 3).
//
// Shape of the Solaris kernel lock with the central lockword replaced by a
// C-SNZI:
//
//   lock free           <=> C-SNZI open,   surplus == 0
//   write-acquired      <=> C-SNZI closed, surplus == 0
//   read-acquired       <=> surplus != 0   (closed additionally means a
//                                           writer is waiting)
//
// Readers acquire with a single C-SNZI Arrive — under read-only workloads
// the metalock and wait queue are never touched, which is the entire point.
// Writers try CloseIfEmpty as their fast path; on conflict, threads enqueue
// under the metalock and the releasing thread *hands over* ownership before
// waking them (no acquire-after-wake window), exactly as in Solaris.
//
// Fairness policy is the one the paper evaluates (§5.1): readers hand the
// lock to writers, writers hand it to groups of readers, and waiting readers
// coalesce into one group even across queued writers.
//
// Scalable writer path (metalock != tatas; DESIGN.md §10): the Figure 3
// writer release always takes the metalock just to discover the queue is
// empty, so even an uncontended write costs two trips through the
// arbitration lock.  The restructured release elides the metalock when an
// atomic waiter count reads zero and opens the C-SNZI directly; a waiter
// enqueueing concurrently could miss that open, so the release re-checks
// the count after opening while the enqueuer re-checks the C-SNZI after
// publishing its count — a Dekker pair (seq_cst fences between each side's
// store and load) guaranteeing at least one of them observes the other and
// completes the handoff (rescue_missed_open / the enqueue-undo paths).
// metalock=tatas keeps the seed release protocol bit-for-bit as the
// ablation baseline.
//
// Extensions implemented per §3.2.1: try_upgrade() (read -> write when sole
// holder, using the dual root counter trade) and downgrade() (write -> read).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"
#include "locks/cohort_mcs_lock.hpp"
#include "locks/combining.hpp"
#include "locks/lock_stats.hpp"
#include "locks/per_thread.hpp"
#include "locks/timed.hpp"
#include "locks/wait_queue.hpp"
#include "snzi/csnzi.hpp"

namespace oll {

struct GollOptions {
  std::uint32_t max_threads = 512;
  CSnziOptions csnzi{};
  // §5.1 footnote-1 policy knob: readers join the waiting reader group even
  // if writers queued after it (Solaris-style).  false => strict FIFO groups.
  bool readers_coalesce_over_writers = true;
  // kSpin matches the paper's evaluation; kBlocking parks waiters on a
  // condition variable like the production Solaris lock; kSpinThenPark
  // spins an adaptive budget and then parks on the grant word via the
  // futex-backed substrate (platform/park.hpp, DESIGN.md §16) — the policy
  // that survives oversubscription (bench/oversubscribe.cpp).
  WaitStrategy wait_strategy = WaitStrategy::kSpin;
  // Writer-arbitration metalock: kind (tatas|mcs|cohort), cohort budget and
  // topology (see cohort_mcs_lock.hpp).  With kCohort the same budget also
  // enables the wait queue's domain-preferring writer wake policy.
  MetalockOptions metalock{};
  // Flat-combining/delegation writer mode (locks/combining.hpp, DESIGN.md
  // §15): with_write() closures that lose the acquire race are published to
  // the combining pool and executed by the current holder before it
  // releases.  Off by default — lock()/unlock() callers are unaffected
  // either way (their release drains the pool when enabled).
  bool combine = false;
  // Max closures one holder executes per pre-release drain.  Bounds writer-
  // side occupancy: readers and conventional writers wait at most one
  // budget's worth of delegated critical sections beyond the holder's own.
  std::uint32_t combine_budget = 64;
};

template <typename M = RealMemory>
class GollLock {
 public:
  using Ticket = typename CSnzi<M>::Ticket;

  explicit GollLock(const GollOptions& opts = {})
      : opts_(opts),
        fast_release_(opts.metalock.kind != MetalockKind::kTatas),
        dmap_(opts.metalock.topology != nullptr ? opts.metalock.topology
                                                : &Topology::system()),
        metalock_(metalock_options(opts)),
        locals_(opts.max_threads),
        stats_(opts.max_threads),
        csnzi_(csnzi_options(opts)),
        queue_(opts.readers_coalesce_over_writers,
               opts.metalock.kind == MetalockKind::kCohort
                   ? opts.metalock.cohort_budget
                   : 0,
               /*tree_wake=*/opts.metalock.kind != MetalockKind::kTatas),
        combine_(opts.combine ? opts.max_threads : 1) {}

  GollLock(const GollLock&) = delete;
  GollLock& operator=(const GollLock&) = delete;

  // --- writer side (Figure 3: WriterLock / WriterUnlock) -----------------

  void lock() {
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    lock_impl();
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) stats_.record_write_acquire(d);
  }

  bool try_lock() { return csnzi_.close_if_empty(); }

  void unlock() {
    // Still exclusive: run delegated closures in-cache before the release
    // protocol (DESIGN.md §15).  One shared load when combining is idle.
    drain_combining();
    trace_event(TraceEventType::kWriteRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    if (fast_release_ && has_waiters_.load(std::memory_order_relaxed) == 0) {
      // Metalock-eliding release (see file comment): no waiters, so the
      // queue needs no update — open the C-SNZI directly.  The fence +
      // re-check pairs with the enqueuers' publish + re-check.
      csnzi_.open();
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (has_waiters_.load(std::memory_order_relaxed) != 0) {
        rescue_missed_open();
      }
      return;
    }
    typename WaitQueue<M>::GroupRef group;
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      group = queue_.dequeue(my_domain());
      sync_waiter_flag();
      if (group.empty()) {
        csnzi_.open();
        return;
      }
      if (group.kind() == ReqKind::kReader) {
        // Hand over to the reader group: surplus = group size, and stay
        // closed iff more writers wait behind them.
        csnzi_.open_with_arrivals(group.count(), queue_.num_writers() != 0);
      }
      // Writer next in line: C-SNZI is already closed with zero surplus,
      // which *is* the write-acquired state; nothing to change.
    }
    fault_perturb(FaultSite::kQueueHandoff);
    stats_.count_unparks(group.signal_all());
  }

  // --- delegated/combined write (DESIGN.md §15) --------------------------
  // Execute `fn(ctx)` under exclusive ownership.  With combining disabled,
  // or on the uncontended fast path, the closure runs on the calling thread
  // between a conventional acquire/release.  Under contention the closure
  // is published to the combining pool and typically executed by the
  // current holder before it releases — zero metalock handoffs, zero queue
  // wakes for this operation.  The call returns only after the closure ran;
  // its exception (if any) is rethrown here.  Closures must not depend on
  // thread identity — see combining.hpp.
  void with_write(void (*fn)(void*), void* ctx) {
    if (!opts_.combine) {
      lock();
      OwnedExec guard{*this};
      fn(ctx);
      return;
    }
    if (csnzi_.close_if_empty()) {
      stats_.count_write_fast();
      OwnedExec guard{*this};
      fn(ctx);
      return;
    }
    // Delegate only when the C-SNZI is CLOSED: closed means a write holder
    // (or a writer hand-off chain) exists to drain us.  Open means a reader
    // epoch or a free lock — no combiner will appear until some writer
    // acquires conventionally, so publishing would just burn the spin
    // budget before falling back (measured: −5% on fig5c at 32 threads).
    // Races are benign: a stale read here only picks the slower-but-correct
    // path, and both paths' fallbacks preserve liveness either way.
    if (csnzi_.query().open) {
      lock();
      OwnedExec guard{*this};
      fn(ctx);
      return;
    }
    trace_event(TraceEventType::kCombinePublish, this);
    typename CombinePool<M>::Slot& slot =
        combine_.publish(fn, ctx, my_domain());
    SpinWait w;
    for (std::uint32_t i = 0; i < kDelegateSpinBudget; ++i) {
      const std::uint32_t st = slot.state.load(std::memory_order_acquire);
      if (st == static_cast<std::uint32_t>(CombineState::kDone)) {
        stats_.count_combine_handoff_saved();
        combine_.consume(slot);  // rethrows the closure's exception, if any
        return;
      }
      // Periodically try to become the holder ourselves — the lock may
      // have gone free with nobody left to combine for us.  Gated on a
      // cached root read so the spin does not pound the root line while a
      // holder is draining.
      if (st == static_cast<std::uint32_t>(CombineState::kPending) &&
          (i & 15u) == 0 && csnzi_.query().open && csnzi_.close_if_empty()) {
        // We hold the lock; nobody else can claim our slot now.  It is
        // either still kPending (take it back and run inline) or a prior
        // holder drove it to kDone before releasing.
        if (combine_.try_retract(slot)) {
          stats_.count_write_fast();
          OwnedExec guard{*this};
          fn(ctx);
          return;
        }
        unlock();  // already executed for us; hand the lock on first
        stats_.count_combine_handoff_saved();
        combine_.consume(slot);
        return;
      }
      fault_perturb(FaultSite::kSpinWait);
      w.pause();
    }
    // Budget exhausted (e.g. a long reader epoch with no write holder to
    // combine): fall back to the conventional queued acquire so delegation
    // can never starve a writer.
    if (combine_.try_retract(slot)) {
      lock();
      OwnedExec guard{*this};
      fn(ctx);
      return;
    }
    // A combiner claimed the slot as we gave up; completion is imminent.
    spin_until([&slot] {
      return slot.state.load(std::memory_order_acquire) ==
             static_cast<std::uint32_t>(CombineState::kDone);
    });
    stats_.count_combine_handoff_saved();
    combine_.consume(slot);
  }

  // --- reader side (Figure 3: ReaderLock / ReaderUnlock) -----------------

  void lock_shared() {
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    lock_shared_impl();
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) stats_.record_read_acquire(d);
  }

  bool try_lock_shared() {
    Local& local = locals_.local();
    OLL_DCHECK(!local.ticket.arrived());
    Ticket t = csnzi_.arrive();
    if (!t.arrived()) return false;
    local.ticket = t;
    return true;
  }

  void unlock_shared() {
    trace_event(TraceEventType::kReadRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    Local& local = locals_.local();
    OLL_DCHECK(local.ticket.arrived());
    Ticket t = local.ticket;
    local.ticket = Ticket{};
    if (csnzi_.depart(t)) return;  // not last, or no writer waiting
    // Last departure from a closed C-SNZI: the lock is now in the
    // write-acquired state and some writer is (or is about to be) queued —
    // writers Close only while holding the metalock, so once we have the
    // metalock the queue cannot be empty.
    typename WaitQueue<M>::GroupRef group;
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      group = queue_.dequeue(my_domain());
      sync_waiter_flag();
      if (group.empty()) {
        // Every queued waiter abandoned its timed wait between our last
        // departure (which observed the closed C-SNZI some waiter had
        // caused) and this dequeue.  Nobody to hand over to: the lock is
        // simply free again.  Before timed acquisition this was impossible
        // — writers Close only with a node already queued — and this path
        // asserted non-emptiness.
        csnzi_.open();
        return;
      }
      if (group.kind() == ReqKind::kReader) {
        // Queue policy let readers overtake the writer that closed the
        // C-SNZI; re-open directly into the read-acquired state, staying
        // closed while a writer still waits.  num_writers can legitimately
        // be zero here since timed acquisition: the writer whose Close we
        // observed may have abandoned, leaving only readers queued behind
        // the closed indicator (§3.2, Fig. 3 comment; DESIGN.md §11).
        csnzi_.open_with_arrivals(group.count(), queue_.num_writers() != 0);
      }
    }
    fault_perturb(FaultSite::kQueueHandoff);
    stats_.count_unparks(group.signal_all());
  }

  // --- timed acquisition (SharedTimedMutex requirements) ------------------
  // Genuine enqueue-and-abandon (DESIGN.md §11): a timed acquisition that
  // misses the fast path joins the wait queue exactly like its untimed
  // sibling — same coalescing, same Dekker publication — and on timeout
  // unlinks its node under the metalock (WaitQueue::try_abandon).  When the
  // unlink fails the group was already dequeued: ownership was transferred
  // before the grant flag was set, so the grant is consumed and the call
  // succeeds even past the deadline (the standard timed contract permits
  // this; discarding the grant would strand the lock).  An already-expired
  // deadline degenerates to the try_ fast path: it never waits or enqueues.

  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp) {
    const auto deadline = to_steady_deadline(tp);
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    const bool ok = timed_lock_impl(deadline);
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) {
      stats_.record_timed_acquire(d);
      if (ok) stats_.record_write_acquire(d);
    }
    return ok;
  }

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_shared_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_shared_until(
      const std::chrono::time_point<Clock, Duration>& tp) {
    const auto deadline = to_steady_deadline(tp);
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    const bool ok = timed_lock_shared_impl(deadline);
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) {
      stats_.record_timed_acquire(d);
      if (ok) stats_.record_read_acquire(d);
    }
    return ok;
  }

  // --- write upgrade / downgrade (§3.2.1) --------------------------------

  // Caller holds the lock for reading.  Atomically upgrade to writing iff
  // the caller is the sole lock holder and no writer is waiting; on failure
  // the caller still holds the read lock.
  bool try_upgrade() {
    Local& local = locals_.local();
    OLL_DCHECK(local.ticket.arrived());
    if (!csnzi_.try_upgrade_exclusive(local.ticket)) return false;
    local.ticket = Ticket{};
    return true;
  }

  // Caller holds the lock for writing; convert to reading.  Waiting readers
  // are granted alongside the caller so they are not stranded behind an
  // open C-SNZI they already queued against.
  void downgrade() {
    // Last moment of exclusivity: run delegated closures before converting,
    // or they would wait out the entire reader epoch we are about to start.
    drain_combining();
    Local& local = locals_.local();
    OLL_DCHECK(!local.ticket.arrived());
    typename WaitQueue<M>::GroupRef group;
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      if (!queue_.empty() && queue_.head_kind() == ReqKind::kReader) {
        group = queue_.dequeue();
        sync_waiter_flag();
        csnzi_.open_with_arrivals(1 + group.count(),
                                  queue_.num_writers() != 0);
      } else {
        // Either no waiters, or a writer is next: stay closed in the latter
        // case so the writer's turn comes when we depart.
        csnzi_.open_with_arrivals(1, !queue_.empty());
      }
      local.ticket = csnzi_.direct_ticket();
    }
    fault_perturb(FaultSite::kQueueHandoff);
    stats_.count_unparks(group.signal_all());
  }

  // --- introspection ------------------------------------------------------
  SnziQuery state() const { return csnzi_.query(); }

  // Approximate: some delegated closure is published and not yet claimed.
  // Lets tests (mechanism_test.cpp) sequence a drain deterministically.
  bool combining_pending() const {
    return opts_.combine && combine_.maybe_pending();
  }

  // Fast-path vs queued acquisition counts (see lock_stats.hpp); exact at
  // quiescence.  At 100% reads, read_queued and write_* must be zero — the
  // §3.2 claim that read-only workloads never touch the metalock.
  LockStatsSnapshot stats() const {
    LockStatsSnapshot s = stats_.snapshot();
    s.csnzi = csnzi_.stats();
    const MetalockStatsSnapshot m = metalock_.stats();
    s.meta_handoffs = m.handoffs;
    s.meta_cohort_hits = m.cohort_hits;
    s.meta_cross_domain = m.cross_domain;
    s.wake_cohort_hits = queue_.wake_cohort_hits();
    s.wake_cross_domain = queue_.wake_cross_domain();
    return s;
  }

 private:
  // Unlock-on-scope-exit for closures run inline by with_write: the unlock
  // fires (and drains the combining pool) whether fn returns or throws.
  struct OwnedExec {
    GollLock& l;
    ~OwnedExec() { l.unlock(); }
  };

  // Execute pending delegated closures while still exclusive (top of every
  // write release).  Budget-bounded — see GollOptions::combine_budget — so
  // one holder cannot occupy the lock unboundedly on other threads' behalf.
  void drain_combining() {
    if (!opts_.combine || !combine_.claim_pending()) return;
    const ObsTimer t = obs_begin(TraceEventType::kCombineBegin, this);
    const std::uint32_t n =
        combine_.drain(opts_.combine_budget, my_domain());
    obs_end(TraceEventType::kCombineEnd, this, t);
    if (n != 0) {
      stats_.count_combined_ops(n);
      stats_.count_combine_batch();
    }
  }

  // Figure 3's WriterLock body.  The public lock() wraps it in the
  // observability begin/end pair; the queued wait is bracketed separately so
  // traces show the waiting interval and the writer-wait histogram measures
  // it (the bound the C-SNZI's sticky re-arm budget promises).  A writer
  // that acquires without waiting in the queue — fast path, reopen spin, or
  // the Close under the metalock — counts as write_fast; write_queued counts
  // only writers that enqueued.
  void lock_impl() {
    SnziQuery seen;
    if (csnzi_.close_if_empty(&seen) ||
        (fast_release_ && wait_for_reopen<true>(seen))) {
      stats_.count_write_fast();
      return;
    }
    typename WaitQueue<M>::WaitNode waiter;
    waiter.arm(opts_.wait_strategy, my_domain());
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      if (csnzi_.close()) {
        stats_.count_write_fast();
        return;  // lock became free; Close acquired it
      }
      const bool was_empty = queue_.empty();
      queue_.enqueue(&waiter, ReqKind::kWriter);
      if (fast_release_ && was_empty) {
        // Only the empty->nonempty transition can race with the eliding
        // release — existing waiters are visible to its first flag check.
        has_waiters_.store(1, std::memory_order_relaxed);
        // Dekker re-check (see unlock): an eliding release may have opened
        // the C-SNZI without observing the flag above.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (csnzi_.query().open && csnzi_.close()) {
          // The lock went free and the re-close acquired it: dequeue
          // ourselves and own it.  (A failed re-close means a new holder
          // closed first or we closed over fresh readers; either way the
          // next release/last departure sees our node and hands off.)
          queue_.remove(&waiter);
          sync_waiter_flag();
          stats_.count_write_queued();
          return;
        }
      }
    }
    stats_.count_write_queued();
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    waiter.wait();  // ownership handed over before the flag is set
    const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
    if (qt.armed) stats_.record_writer_wait(qd);
    note_park(waiter);
  }

  // Figure 3's ReaderLock body (see lock_shared for the observability shell).
  void lock_shared_impl() {
    Local& local = locals_.local();
    OLL_DCHECK(!local.ticket.arrived());  // non-recursive
    while (true) {
      local.ticket = csnzi_.arrive();
      if (local.ticket.arrived()) {
        stats_.count_read_fast();  // no queueing: one C-SNZI arrival
        return;
      }
      if (fast_release_ && wait_for_reopen<false>(csnzi_.query())) {
        continue;  // the write epoch ended; retry the arrival fast path
      }
      typename WaitQueue<M>::WaitNode waiter;
      waiter.arm(opts_.wait_strategy, my_domain());
      {
        std::lock_guard<Metalock<M>> meta(metalock_);
        if (csnzi_.query().open) continue;  // reopened meanwhile; retry
        const bool was_empty = queue_.empty();
        queue_.enqueue(&waiter, ReqKind::kReader);
        if (fast_release_ && was_empty) {
          has_waiters_.store(1, std::memory_order_relaxed);
          // Dekker re-check (see unlock): if an eliding release opened the
          // C-SNZI without seeing the flag, undo the enqueue and retry the
          // arrival fast path rather than wait for its rescue.
          std::atomic_thread_fence(std::memory_order_seq_cst);
          if (csnzi_.query().open) {
            queue_.remove(&waiter);
            sync_waiter_flag();
            continue;
          }
        }
      }
      // The releasing thread pre-arrives at the root on our behalf
      // (OpenWithArrivals), so we will depart with a direct ticket.
      local.ticket = csnzi_.direct_ticket();
      stats_.count_read_queued();
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      waiter.wait();
      obs_end(TraceEventType::kQueueExit, this, qt);
      note_park(waiter);
      return;
    }
  }

  // Timed WriterLock (see the public comment): fast path, deadline-bounded
  // reopen spin, enqueue with the full Dekker publication, deadline-bounded
  // wait, abandon-or-consume.
  bool timed_lock_impl(std::chrono::steady_clock::time_point deadline) {
    SnziQuery seen;
    if (csnzi_.close_if_empty(&seen)) {
      stats_.count_write_fast();
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      stats_.count_write_timeout();
      return false;
    }
    if (fast_release_ && wait_for_reopen<true>(seen, deadline)) {
      stats_.count_write_fast();
      return true;
    }
    typename WaitQueue<M>::WaitNode waiter;
    waiter.arm(opts_.wait_strategy, my_domain());
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      if (csnzi_.close()) {
        stats_.count_write_fast();
        return true;  // lock became free; Close acquired it
      }
      const bool was_empty = queue_.empty();
      queue_.enqueue(&waiter, ReqKind::kWriter);
      if (fast_release_ && was_empty) {
        has_waiters_.store(1, std::memory_order_relaxed);
        // Dekker re-check fence, as in lock() — pairs with the eliding
        // release's fence in unlock().
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (csnzi_.query().open && csnzi_.close()) {
          queue_.remove(&waiter);
          sync_waiter_flag();
          stats_.count_write_queued();
          return true;
        }
      }
    }
    stats_.count_write_queued();
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    if (waiter.wait_until_granted(deadline)) {
      const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
      if (qt.armed) stats_.record_writer_wait(qd);
      note_park(waiter);
      return true;  // granted: ownership was handed over before the flag
    }
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      if (queue_.try_abandon(&waiter)) {
        sync_waiter_flag();
        obs_end(TraceEventType::kQueueExit, this, qt);
        stats_.count_write_timeout();
        stats_.count_write_abandon();
        note_park(waiter);
        return false;
      }
    }
    // Our group was dequeued before we could abandon: a grant is in flight
    // (or delivered) and ownership is already ours — consume it.
    waiter.wait();
    const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
    if (qt.armed) stats_.record_writer_wait(qd);
    note_park(waiter);
    return true;
  }

  // Timed ReaderLock: same retry structure as lock_shared_impl with a
  // deadline check per round and the abandon-or-consume epilogue.  A reader
  // that abandons also drains its C-SNZI sticky window: the dense index may
  // be released right after we return, and the successor recycling it must
  // find a clean slot even if it never triggers the epoch guard.
  bool timed_lock_shared_impl(std::chrono::steady_clock::time_point deadline) {
    Local& local = locals_.local();
    OLL_DCHECK(!local.ticket.arrived());  // non-recursive
    while (true) {
      Ticket ticket = csnzi_.arrive();
      if (ticket.arrived()) {
        local.ticket = ticket;
        stats_.count_read_fast();
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        csnzi_.drain_thread_sticky();
        stats_.count_read_timeout();
        return false;
      }
      if (fast_release_ && wait_for_reopen<false>(csnzi_.query(), deadline)) {
        continue;  // the write epoch ended; retry the arrival fast path
      }
      typename WaitQueue<M>::WaitNode waiter;
      waiter.arm(opts_.wait_strategy, my_domain());
      {
        std::lock_guard<Metalock<M>> meta(metalock_);
        if (csnzi_.query().open) continue;  // reopened meanwhile; retry
        const bool was_empty = queue_.empty();
        queue_.enqueue(&waiter, ReqKind::kReader);
        if (fast_release_ && was_empty) {
          has_waiters_.store(1, std::memory_order_relaxed);
          // Dekker re-check fence, as in lock_shared() — pairs with the
          // eliding release's fence in unlock().
          std::atomic_thread_fence(std::memory_order_seq_cst);
          if (csnzi_.query().open) {
            queue_.remove(&waiter);
            sync_waiter_flag();
            continue;
          }
        }
      }
      stats_.count_read_queued();
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      if (waiter.wait_until_granted(deadline)) {
        // Forward tree-wake children before anything else (wait() returns
        // immediately — the flag is already set — and fans out).
        waiter.wait();
        obs_end(TraceEventType::kQueueExit, this, qt);
        note_park(waiter);
        local.ticket = csnzi_.direct_ticket();
        return true;
      }
      {
        std::lock_guard<Metalock<M>> meta(metalock_);
        if (queue_.try_abandon(&waiter)) {
          sync_waiter_flag();
          obs_end(TraceEventType::kQueueExit, this, qt);
          csnzi_.drain_thread_sticky();
          stats_.count_read_timeout();
          stats_.count_read_abandon();
          note_park(waiter);
          return false;
        }
      }
      // Dequeued before we could abandon: consume the in-flight grant (and
      // fan it out to any tree-wake children) — we own a read slot that the
      // releaser pre-arrived for us.
      waiter.wait();
      obs_end(TraceEventType::kQueueExit, this, qt);
      note_park(waiter);
      local.ticket = csnzi_.direct_ticket();
      return true;
    }
  }

  // Bounded spin on the C-SNZI root waiting for the write epoch to end
  // (metalock != tatas; DESIGN.md §10), starting from the root state `s`
  // the caller last saw.  A queued waiter costs two metalock round trips
  // plus a wake handoff, so a thread that merely caught a short writer
  // critical section spins for the reopen instead — off the metalock, off
  // the wait queue, and invalidation-free (the root line is only re-read
  // when it actually changes).  Out of line so the callers' fast paths keep
  // their code placement.
  //
  // A reader returns true once the root reads open; the caller retries its
  // arrival.  A writer returns true iff it acquired the lock: an open, empty
  // root is retried with CloseIfEmpty (test-and-test-and-set, so the spin
  // itself never writes the root line readers update).  A writer stops at
  // once, returning false, when readers hold the lock (it closes over them
  // under the metalock, as before the spin existed) or when the root is
  // closed with waiters queued (a handoff chain it must not barge into).
  // While writers wait the C-SNZI stays closed, so no spinner overtakes a
  // queued writer.  Budget or deadline expiry also returns false: the
  // caller falls back to the queue, preserving liveness under writer bursts
  // and the coalescing fairness policy.
  template <bool kWriter>
  [[gnu::cold, gnu::noinline]] bool wait_for_reopen(
      SnziQuery s, std::chrono::steady_clock::time_point deadline =
                       std::chrono::steady_clock::time_point::max()) {
    SpinWait w;
    for (std::uint32_t i = 1;; ++i) {
      if (s.open) {
        if (!kWriter) return true;
        if (s.nonzero) return false;
        if (csnzi_.close_if_empty(&s)) return true;
      } else if (kWriter && has_waiters_.load(std::memory_order_relaxed) != 0) {
        return false;
      }
      fault_perturb(FaultSite::kSpinWait);
      w.pause();
      if (i == kReopenSpinBudget) return false;
      if (deadline != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      s = csnzi_.query();
    }
  }

  // Slow half of the eliding release: we opened the C-SNZI believing the
  // queue empty, then the re-check observed a waiter that may have missed
  // the open.  Reclaim the lock under the metalock and hand it off; if the
  // re-close fails, some new holder (a fast-path writer, or readers we just
  // closed over) took the lock first and its own release path — or the last
  // reader's departure — performs the handoff instead.
  void rescue_missed_open() {
    typename WaitQueue<M>::GroupRef group;
    {
      std::lock_guard<Metalock<M>> meta(metalock_);
      if (queue_.empty()) return;  // the enqueuer rescued itself
      if (!csnzi_.close()) return;
      group = queue_.dequeue(my_domain());
      sync_waiter_flag();
      OLL_CHECK(!group.empty());
      if (group.kind() == ReqKind::kReader) {
        csnzi_.open_with_arrivals(group.count(), queue_.num_writers() != 0);
      }
    }
    fault_perturb(FaultSite::kQueueHandoff);
    stats_.count_unparks(group.signal_all());
  }

  // Re-derive the queue-nonempty flag after a dequeue/remove.  Mutated only
  // under the metalock; read without it by the eliding unlock().  Written
  // only on empty<->nonempty transitions so the line stays quiet while
  // readers pile onto an existing group.  The seq_cst fences at the
  // read/publish sites order the flag stores against the C-SNZI open/query
  // ops of the Dekker protocol.
  void sync_waiter_flag() {
    if (fast_release_ && queue_.empty() &&
        has_waiters_.load(std::memory_order_relaxed) != 0) {
      has_waiters_.store(0, std::memory_order_relaxed);
    }
  }

  // The C-SNZI sizes its per-thread state to the lock's thread bound unless
  // the caller asked for a different bound explicitly.
  static CSnziOptions csnzi_options(const GollOptions& opts) {
    CSnziOptions o = opts.csnzi;
    if (o.max_threads == 0) o.max_threads = opts.max_threads;
    return o;
  }

  static MetalockOptions metalock_options(const GollOptions& opts) {
    MetalockOptions o = opts.metalock;
    if (o.max_threads == 0) o.max_threads = opts.max_threads;
    // The lock's wait policy covers its metalock too: a thread that parks
    // in the wait queue but spins on the metalock would reintroduce the
    // oversubscription burn the policy exists to avoid.
    o.wait_policy = opts.wait_strategy;
    return o;
  }

  // Releasing/enqueueing thread's LLC domain, for the wait queue's cohort
  // writer handoff.  One relaxed table lookup; free on single-domain hosts.
  std::uint32_t my_domain() const { return dmap_.domain_of(this_thread_index()); }

  // Per-lock park attribution: fold the wait's park outcome into LockStats.
  // One branch when the waiter never parked (kSpin / uncontended park path).
  void note_park(const typename WaitQueue<M>::WaitNode& w) {
    stats_.count_park_outcome(w.park_outcome.parks, w.park_outcome.spurious,
                              w.park_outcome.wait_ns);
  }

  struct Local {
    Ticket ticket{};
  };

  // Spin-for-reopen budget (root polls) before a reader or writer queues.
  static constexpr std::uint32_t kReopenSpinBudget = 256;
  // Delegating writer's wait budget (pause iterations on its own slot,
  // with a close attempt every 16th) before retract-and-queue.  Generous:
  // the slot line is thread-local until a combiner completes it, so the
  // spin is cheap, and the bound only exists for liveness when no write
  // holder shows up to combine (see with_write's fallback).
  static constexpr std::uint32_t kDelegateSpinBudget = 1024;

  // Hot-word layout (DESIGN.md §17), in three groups of false-sharing
  // ranges whose boundaries do not depend on the allocator's offset:
  //   1. read on every operation, written only at construction — the
  //      options, the domain map, the metalock handle (its lock word lives
  //      on the heap), and the pointers to the per-thread Local and stats
  //      slots;
  //   2. the C-SNZI, whose read-mostly head may share group 1's last range
  //      and whose root word sits alone on its own range (csnzi.hpp);
  //   3. the writer-side state mutated on queued acquisitions: the waiter
  //      flag, the wait queue and the combining pool, starting a fresh
  //      range so their stores never invalidate groups 1 and 2.
  GollOptions opts_;
  // Scalable writer path (metalock != tatas): eliding release + tree wake.
  // tatas keeps the seed protocol as the ablation baseline.
  const bool fast_release_;
  DomainMap dmap_;
  Metalock<M> metalock_;
  PerThreadSlots<Local> locals_;
  LockStats stats_;
  CSnzi<M> csnzi_;
  // Queue-nonempty flag for the eliding release; see sync_waiter_flag().
  alignas(kFalseSharingRange)
      typename M::template Atomic<std::uint32_t> has_waiters_{0};
  WaitQueue<M> queue_;
  // Delegated-writer publication pool (sized 1 when combining is off).
  CombinePool<M> combine_;

 public:
  // Member address ranges for the layout test (tests/footprint_test.cpp),
  // including the C-SNZI's, each tagged with its LayoutGroup.
  template <typename F>
  void visit_layout(F&& f) const {
    constexpr LayoutGroup kRead = LayoutGroup::kReadMostly;
    constexpr LayoutGroup kWriter = LayoutGroup::kWriterSide;
    f("goll.opts_", &opts_, sizeof(opts_), kRead);
    f("goll.fast_release_", &fast_release_, sizeof(fast_release_), kRead);
    f("goll.dmap_", &dmap_, sizeof(dmap_), kRead);
    f("goll.metalock_", &metalock_, sizeof(metalock_), kRead);
    f("goll.locals_", &locals_, sizeof(locals_), kRead);
    f("goll.stats_", &stats_, sizeof(stats_), kRead);
    csnzi_.visit_layout(f);
    f("goll.has_waiters_", &has_waiters_, sizeof(has_waiters_), kWriter);
    f("goll.queue_", &queue_, sizeof(queue_), kWriter);
    f("goll.combine_", &combine_, sizeof(combine_), kWriter);
  }
};

}  // namespace oll
