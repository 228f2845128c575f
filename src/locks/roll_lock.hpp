// ROLL — reader-preference OLL reader-writer lock (paper §4.3).
//
// FOLL with the FIFO guarantee relaxed: a reader may overtake waiting
// writers to join a reader node whose readers are still *waiting* for the
// lock (spin flag still set).  The paper sketches the construction in one
// paragraph: make the queue doubly linked so readers can search backwards
// from the tail for such a node, and cache a pointer to the last known
// waiting reader node in the lock ("the optimization reduces the number of
// searches"); a thread that fails to join clears the pointer.
//
// Design decisions the sketch leaves open (documented per DESIGN.md §4):
//
//  * DEFERRED CLOSE.  In FOLL a writer closes its reader-node predecessor's
//    C-SNZI the moment it enqueues, which would make mid-queue joining
//    impossible.  In ROLL the writer waits until the node's group has been
//    granted the lock (spin == 0, after which searching readers no longer
//    join it) and only then closes.  Readers that raced past the spin check
//    just before the flip and arrived before the Close simply hold the lock
//    as extra group members; the writer's Close returns false and it waits
//    for the last departure as usual.  If the group drains before the Close
//    (surplus zero, still open), Close returns true and the writer inherits
//    the node's queue position exactly as in FOLL.
//
//  * BOUNDED TRAVERSAL.  prev pointers of recycled nodes are stale, so the
//    backwards search is a bounded heuristic (kMaxScanHops).  A stale hop
//    can only reach (a) a node outside every queue — its C-SNZI is closed,
//    so the join's Arrive fails — or (b) a node legitimately queued in this
//    lock (nodes are per-lock pooled), which is a correct if unfair join
//    target.  Exclusion is never at risk; we fall back to tail-enqueue.
//
//  * HINT MAINTENANCE.  The hint is set by the enqueuer of a waiting reader
//    node and by any thread that joins one; it is cleared (CAS, so a newer
//    hint survives) by threads that find it unusable.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/park.hpp"
#include "platform/spin.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"
#include "locks/lock_stats.hpp"
#include "locks/per_thread.hpp"
#include "locks/timed.hpp"
#include "locks/wait_queue.hpp"
#include "snzi/csnzi.hpp"

namespace oll {

struct RollOptions {
  std::uint32_t max_threads = 512;
  CSnziOptions csnzi{};
  // LLC-domain source for the NUMA-aware reader-node pool search and the
  // writer-handoff locality counters (see FollOptions::topology — ROLL's
  // writer arbitration is likewise already a local-spin MCS chain).
  const Topology* topology = nullptr;
  // Max backwards hops when searching for a waiting reader node; 0 disables
  // traversal so only the hint is used (ablation knob).
  std::uint32_t max_scan_hops = 8;
  // Disable the last-reader-node hint entirely (ablation knob, §4.3).
  bool use_hint = true;
  // How queued threads block on their node's spin flag (see
  // FollOptions::wait_policy; kBlocking degrades to kSpin here too).
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

template <typename M = RealMemory>
class RollLock {
 public:
  explicit RollLock(const RollOptions& opts = {})
      : opts_(opts),
        dmap_(opts.topology != nullptr
                  ? opts.topology
                  : (opts.csnzi.topology != nullptr ? opts.csnzi.topology
                                                    : &Topology::system())),
        use_park_(kParkable &&
                  opts.wait_policy == WaitPolicy::kSpinThenPark),
        locals_(opts.max_threads),
        pool_size_(opts.max_threads),
        stats_(opts.max_threads) {
    CSnziOptions copts = opts.csnzi;
    // Size per-thread C-SNZI state to the lock's thread bound by default.
    if (copts.max_threads == 0) copts.max_threads = opts.max_threads;
    pool_ = std::make_unique<Node[]>(pool_size_);
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      pool_[i].init_reader(copts);
      pool_[i].ring_next = &pool_[(i + 1) % pool_size_];
      pool_[i].domain = dmap_.domain_of(i);
    }
    link_domain_rings();
  }

  RollLock(const RollLock&) = delete;
  RollLock& operator=(const RollLock&) = delete;

  // --- writer side ---------------------------------------------------------

  void lock() {
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    lock_impl();
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) stats_.record_write_acquire(d);
  }

  void unlock() {
    trace_event(TraceEventType::kWriteRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    Node* w = &locals_.local().wnode;
    Node* succ = w->qnext.load(std::memory_order_acquire);
    if (succ == nullptr) {
      Node* expected = w;
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;
      }
      spin_until([&] {
        succ = w->qnext.load(std::memory_order_acquire);
        return succ != nullptr;
      });
    }
    count_handoff(succ->domain);  // read before granting: succ may recycle
    fault_perturb(FaultSite::kQueueHandoff);
    grant_spin(succ);
    w->qnext.store(nullptr, std::memory_order_relaxed);
  }

  // --- reader side -----------------------------------------------------------

  void lock_shared() {
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    lock_shared_impl();
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) stats_.record_read_acquire(d);
  }

 private:
  struct Node;  // defined below with the rest of the queue-node machinery

  // §4.3 WriterLock body (the public lock() wraps it in the observability
  // begin/end pair).  With the deferred close, a writer behind a reader node
  // first waits for the group to be *granted* (queue wait), then — if its
  // Close caught live readers — for the group to drain, which is the
  // interval the writer-wait histogram measures.
  void lock_impl() {
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();  // published by the release stores below
    w->qnext.store(nullptr, std::memory_order_relaxed);
    w->prev.store(nullptr, std::memory_order_relaxed);
    Node* old_tail = tail_.exchange(w, std::memory_order_acq_rel);
    if (old_tail == nullptr) {
      stats_.count_write_fast();
      return;
    }
    stats_.count_write_queued();
    w->spin.store(1, std::memory_order_relaxed);
    w->prev.store(old_tail, std::memory_order_release);
    old_tail->qnext.store(w, std::memory_order_release);
    if (old_tail->kind == kWriterNode) {
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(w->spin);
      obs_end(TraceEventType::kQueueExit, this, qt);
      return;
    }
    // Reader predecessor: wait for it to be opened by its enqueuer, then —
    // unlike FOLL — wait for its group to be GRANTED the lock before
    // closing, so overtaking readers can keep joining it while it waits.
    spin_until([&] { return old_tail->csnzi->query().open; });
    {
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(old_tail->spin);
      obs_end(TraceEventType::kQueueExit, this, qt);
    }
    if (old_tail->csnzi->close()) {
      // Group fully drained before the close: inherit its queue position.
      old_tail->qnext.store(nullptr, std::memory_order_relaxed);
      free_reader_node(old_tail);
    } else {
      // Live readers hold the group: this spin IS the drain interval.
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(w->spin);
      const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
      if (qt.armed) stats_.record_writer_wait(qd);
    }
  }

  // §4.3 ReaderLock body (see lock_shared for the observability shell).
  void lock_shared_impl() {
    Local& local = locals_.local();
    Node* rnode = nullptr;
    while (true) {
      // 1. Try the last-known waiting reader node (§4.3 optimization).
      if (opts_.use_hint) {
        Node* h = hint_.load(std::memory_order_acquire);
        if (h != nullptr) {
          if (try_join_waiting(h, local)) {
            if (rnode != nullptr) free_reader_node(rnode);
            stats_.count_read_queued();  // joined a *waiting* group
            wait_granted(h);
            return;
          }
          hint_.compare_exchange_strong(h, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
        }
      }
      Node* tail = tail_.load(std::memory_order_acquire);
      if (tail == nullptr) {
        // Empty queue: enqueue a fresh, immediately-granted reader node.
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(0, std::memory_order_relaxed);
        rnode->prev.store(nullptr, std::memory_order_relaxed);
        Node* expected = nullptr;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          rnode->csnzi->open();
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            local.depart_from = rnode;
            stats_.count_read_fast();  // empty queue: no waiting
            return;
          }
          rnode = nullptr;
        }
      } else if (tail->kind == kReaderNode) {
        // Reader node at the tail: share it whether waiting or active.
        local.ticket = tail->csnzi->arrive();
        if (local.ticket.arrived()) {
          if (rnode != nullptr) free_reader_node(rnode);
          local.depart_from = tail;
          if (tail->spin.load(std::memory_order_acquire) != 0) {
            if (opts_.use_hint) hint_.store(tail, std::memory_order_release);
            stats_.count_read_queued();
          } else {
            stats_.count_read_fast();  // joined an already-granted group
          }
          wait_granted(tail);
          return;
        }
      } else {
        // Writer at the tail.  Reader preference: search backwards for a
        // still-waiting reader node to join before queuing a new one.
        if (Node* found = scan_for_waiting_reader(tail, local)) {
          if (rnode != nullptr) free_reader_node(rnode);
          if (opts_.use_hint) hint_.store(found, std::memory_order_release);
          stats_.count_read_queued();
          wait_granted(found);
          return;
        }
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(1, std::memory_order_relaxed);
        Node* expected = tail;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          rnode->prev.store(tail, std::memory_order_release);
          tail->qnext.store(rnode, std::memory_order_release);
          rnode->csnzi->open();
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            local.depart_from = rnode;
            if (opts_.use_hint) hint_.store(rnode, std::memory_order_release);
            stats_.count_read_queued();  // waiting behind a writer
            wait_granted(rnode);
            return;
          }
          rnode = nullptr;
        }
      }
    }
  }

 public:
  void unlock_shared() {
    trace_event(TraceEventType::kReadRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    Local& local = locals_.local();
    Node* node = local.depart_from;
    OLL_DCHECK(node != nullptr);
    local.depart_from = nullptr;
    depart_and_handoff(node, local.ticket);
  }

  // --- non-blocking acquisition ------------------------------------------

  // Conservative (see FollLock::try_lock): may fail while a drained reader
  // node still occupies the tail, which the SharedMutex contract permits.
  bool try_lock() {
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();
    w->qnext.store(nullptr, std::memory_order_relaxed);
    w->prev.store(nullptr, std::memory_order_relaxed);
    Node* expected = nullptr;
    return tail_.compare_exchange_strong(expected, w,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  bool try_lock_shared() {
    Local& local = locals_.local();
    Node* tail = tail_.load(std::memory_order_acquire);
    if (tail == nullptr) {
      Node* rnode = alloc_reader_node();
      rnode->spin.store(0, std::memory_order_relaxed);
      Node* expected = nullptr;
      if (!tail_.compare_exchange_strong(expected, rnode,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        free_reader_node(rnode);
        return false;
      }
      rnode->csnzi->open();
      local.ticket = rnode->csnzi->arrive();
      if (local.ticket.arrived()) {
        local.depart_from = rnode;
        return true;
      }
      return false;
    }
    if (tail->kind != kReaderNode ||
        tail->spin.load(std::memory_order_acquire) != 0) {
      return false;
    }
    typename CSnzi<M>::Ticket t = tail->csnzi->arrive();
    if (!t.arrived()) return false;
    if (tail->spin.load(std::memory_order_acquire) != 0) {
      depart_and_handoff(tail, t);  // joined a recycled waiting group
      return false;
    }
    local.ticket = t;
    local.depart_from = tail;
    return true;
  }

  // --- timed acquisition (DESIGN.md §11) ----------------------------------

 private:
  // Timed-writer reclaim of a drained reader tail; see
  // FollLock::timed_write_reclaim for the full argument.  A reader group
  // that drains in place stays at the tail until a blocking writer closes
  // it, so the empty-tail try_lock alone starves the timed writer forever
  // after any read.  When the tail is a granted, open, zero-surplus reader
  // node we run the blocking writer's enqueue-and-close takeover; the tail
  // CAS is the commit point, and the deadline can be overshot by the
  // critical sections of readers that race in (or, under ROLL's reader
  // preference, overtake) between the query and the Close.
  bool timed_write_reclaim() {
    Node* tail = tail_.load(std::memory_order_acquire);
    if (tail == nullptr || tail->kind != kReaderNode) return false;
    if (tail->spin.load(std::memory_order_acquire) != 0) return false;
    const SnziQuery q = tail->csnzi->query();
    if (!q.open || q.nonzero) return false;
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();
    w->qnext.store(nullptr, std::memory_order_relaxed);
    w->prev.store(nullptr, std::memory_order_relaxed);
    w->spin.store(1, std::memory_order_relaxed);
    Node* expected = tail;
    if (!tail_.compare_exchange_strong(expected, w,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;  // tail moved under us: no commitment made
    }
    stats_.count_write_queued();
    w->prev.store(tail, std::memory_order_release);
    tail->qnext.store(w, std::memory_order_release);
    // Mirror lock_impl's order: the group is granted (spin wait only
    // matters in the recycle-and-re-enqueue ABA window), then Close.
    await_grant(tail->spin);
    if (tail->csnzi->close()) {
      tail->qnext.store(nullptr, std::memory_order_relaxed);
      free_reader_node(tail);
      return true;
    }
    // Readers joined before the Close; the last to depart signals us.
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    await_grant(w->spin);
    const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
    if (qt.armed) stats_.record_writer_wait(qd);
    return true;
  }

 public:
  // Writer side: deadline-bounded retry over the empty-tail try_lock plus
  // the drained-tail reclaim above, as in FOLL (an MCS fetch-and-store
  // cannot be backed out).
  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp) {
    const auto deadline = to_steady_deadline(tp);
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    const bool ok = deadline_retry(
        deadline, [&] { return try_lock() || timed_write_reclaim(); });
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) {
      stats_.record_timed_acquire(d);
      if (ok) stats_.record_write_acquire(d);
    }
    if (!ok) stats_.count_write_timeout();
    return ok;
  }

  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_until(std::chrono::steady_clock::now() + d);
  }

  // Reader side: enqueue-and-abandon.  Thanks to the deferred close, a
  // *waiting* reader node is always open, so abandonment is a plain Depart;
  // in the race where the grant and the writer's Close both land before our
  // Depart, a last-departer simply owes the normal handoff (the group held
  // the lock with nobody left in it) — no FOLL-style orphan state needed.
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

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_shared_until(std::chrono::steady_clock::now() + d);
  }

  // --- introspection -----------------------------------------------------
  // Fast-path vs queued acquisition counts (see lock_stats.hpp); exact at
  // quiescence.  read_fast counts acquisitions that never waited on a spin
  // flag (empty-queue insert or joining an already-granted reader node).
  LockStatsSnapshot stats() const {
    LockStatsSnapshot s = stats_.snapshot();
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      s.csnzi += pool_[i].csnzi->stats();
    }
    s.wake_cohort_hits = wake_cohort_hits_.load(std::memory_order_relaxed);
    s.wake_cross_domain = wake_cross_domain_.load(std::memory_order_relaxed);
    return s;
  }

  std::uint32_t pool_nodes_in_use() const {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      if (pool_[i].alloc_state.load(std::memory_order_acquire) == kInUse) ++n;
    }
    return n;
  }

 private:
  enum NodeKind : std::uint8_t { kReaderNode, kWriterNode };
  enum AllocState : std::uint32_t { kFree = 0, kInUse = 1 };

  // Spin-flag values within one queue life: 1 = waiting, 0 = granted, and —
  // under kSpinThenPark — kParkedSpin = waiting with (possibly) parked
  // sleepers.  3 matches FOLL (whose value 2 is the orphan tombstone; ROLL
  // has no orphan state but keeps the numbering uniform).  All the
  // spin != 0 "is this group still waiting" checks remain correct: a
  // parked group is a waiting group.
  static constexpr std::uint32_t kParkedSpin = 3;

  // See foll_lock.hpp: parking needs a real kernel-parkable word.
  static constexpr bool kParkable =
      std::is_same_v<typename M::template Atomic<std::uint32_t>,
                     std::atomic<std::uint32_t>>;

  struct alignas(kFalseSharingRange) Node {
    NodeKind kind = kWriterNode;
    typename M::template Atomic<Node*> qnext{nullptr};
    typename M::template Atomic<Node*> prev{nullptr};
    typename M::template Atomic<std::uint32_t> spin{0};
    typename M::template Atomic<std::uint32_t> alloc_state{kFree};
    std::unique_ptr<CSnzi<M>> csnzi;
    Node* ring_next = nullptr;
    // Secondary ring over same-LLC-domain pool nodes; see foll_lock.hpp.
    Node* ring_next_domain = nullptr;
    // Owner/allocator thread's LLC domain; read by the granting thread
    // before it sets `spin` (handoff-locality counters).
    std::uint32_t domain = 0;

    void init_reader(const CSnziOptions& opts) {
      kind = kReaderNode;
      csnzi = std::make_unique<CSnzi<M>>(opts);
      bool was_open_empty = csnzi->close();
      OLL_CHECK(was_open_empty);
    }
  };

  struct Local {
    Node wnode;
    Node* depart_from = nullptr;
    typename CSnzi<M>::Ticket ticket{};
  };

  // Join `n` iff its readers are still waiting (spin set).  The spin check
  // is a heuristic gate (it bounds unfairness to *waiting* groups); the
  // Arrive is the correctness gate — it succeeds only while the node's
  // C-SNZI is open, i.e. only while the node is in this lock's queue.
  bool try_join_waiting(Node* n, Local& local) {
    if (n->kind != kReaderNode ||
        n->spin.load(std::memory_order_acquire) == 0) {
      return false;
    }
    typename CSnzi<M>::Ticket t = n->csnzi->arrive();
    if (!t.arrived()) return false;
    local.ticket = t;
    local.depart_from = n;
    return true;
  }

  Node* scan_for_waiting_reader(Node* tail, Local& local) {
    Node* n = tail->prev.load(std::memory_order_acquire);
    for (std::uint32_t hops = 0; n != nullptr && hops < opts_.max_scan_hops;
         ++hops) {
      if (try_join_waiting(n, local)) return n;
      n = n->prev.load(std::memory_order_acquire);
    }
    return nullptr;
  }

  // Block until `word` (a node's spin flag) reads 0.  Under kSpinThenPark
  // the waiter advertises kParkedSpin and parks on the word; grant_spin's
  // exchange observes the marker and unparks (DESIGN.md §16.2).
  void await_grant(typename M::template Atomic<std::uint32_t>& word) {
    if constexpr (kParkable) {
      if (use_park_) {
        ParkWaitOutcome o;
        const std::uint32_t v = park_wait_u32(word, /*wait_val=*/1,
                                              kParkedSpin, &o);
        stats_.count_park_outcome(o.parks, o.spurious, o.wait_ns);
        OLL_DCHECK(v == 0);
        (void)v;
        return;
      }
    }
    spin_until([&] { return word.load(std::memory_order_acquire) == 0; });
  }

  // Grant `succ`'s queue position (spin -> 0).  Pure-spin keeps the
  // paper's plain release store; under kSpinThenPark the exchange
  // displaces the (possibly) advertised parked marker and unparks every
  // sleeper on the shared flag.
  void grant_spin(Node* succ) {
    if constexpr (kParkable) {
      if (use_park_) {
        if (park_grant_u32(succ->spin, /*grant_val=*/0, kParkedSpin,
                           /*all=*/true) == kParkedSpin) {
          stats_.count_unparks(1);
        }
        return;
      }
    }
    succ->spin.store(0, std::memory_order_release);
  }

  void wait_granted(Node* n) {
    if (n->spin.load(std::memory_order_acquire) == 0) return;
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    await_grant(n->spin);
    obs_end(TraceEventType::kQueueExit, this, qt);
  }

  // Timed counterpart of wait_granted for an arrival recorded in `local`.
  // On timeout the arrival is undone with depart_and_handoff — correct in
  // every reachable node state (see try_lock_shared_until) — and false is
  // returned with the timeout/abandon stats recorded.
  bool timed_wait_granted(Node* n, Local& local,
                          std::chrono::steady_clock::time_point deadline) {
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    bool granted = false;
    if constexpr (kParkable) {
      if (use_park_) {
        // Sticky parked marker on timeout (park.hpp): a racing grant still
        // sees kParkedSpin and unparks any sibling sleeper — the abandon
        // below can never swallow a wake meant for another reader.
        const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           deadline.time_since_epoch())
                           .count();
        ParkWaitOutcome o;
        granted = park_wait_until_u32(
            n->spin, /*wait_val=*/1, kParkedSpin,
            d > 0 ? static_cast<std::uint64_t>(d) : 1, nullptr, &o);
        stats_.count_park_outcome(o.parks, o.spurious, o.wait_ns);
      }
    }
    if (!use_park_) {
      SpinWait w;
      std::uint32_t check = 0;
      for (;;) {
        if (n->spin.load(std::memory_order_acquire) == 0) {
          granted = true;
          break;
        }
        if ((++check & 15u) == 0 &&
            std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        w.pause();
      }
    }
    obs_end(TraceEventType::kQueueExit, this, qt);
    if (granted) return true;
    local.depart_from = nullptr;
    depart_and_handoff(n, local.ticket);
    stats_.count_read_timeout();
    stats_.count_read_abandon();
    return false;
  }

  // lock_shared_impl's search loop with deadline checks: waits not yet
  // started are skipped once the deadline expires (matching
  // try_lock_shared, except the no-wait acquisitions still succeed); a
  // wait in progress is abandoned via timed_wait_granted.
  bool timed_lock_shared_impl(std::chrono::steady_clock::time_point deadline) {
    Local& local = locals_.local();
    Node* rnode = nullptr;
    while (true) {
      const bool expired = std::chrono::steady_clock::now() >= deadline;
      // 1. The hint always points at a *waiting* group; joining it once the
      // deadline has passed would be an immediate abandon, so skip it.
      if (opts_.use_hint && !expired) {
        Node* h = hint_.load(std::memory_order_acquire);
        if (h != nullptr) {
          if (try_join_waiting(h, local)) {
            if (rnode != nullptr) free_reader_node(rnode);
            stats_.count_read_queued();
            return timed_wait_granted(h, local, deadline);
          }
          hint_.compare_exchange_strong(h, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
        }
      }
      Node* tail = tail_.load(std::memory_order_acquire);
      if (tail == nullptr) {
        // Empty queue: acquiring needs no wait, so the deadline is moot.
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(0, std::memory_order_relaxed);
        rnode->prev.store(nullptr, std::memory_order_relaxed);
        Node* expected = nullptr;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          rnode->csnzi->open();
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            local.depart_from = rnode;
            stats_.count_read_fast();
            return true;
          }
          rnode = nullptr;
        }
      } else if (tail->kind == kReaderNode) {
        local.ticket = tail->csnzi->arrive();
        if (local.ticket.arrived()) {
          if (rnode != nullptr) {
            free_reader_node(rnode);
            rnode = nullptr;
          }
          local.depart_from = tail;
          if (tail->spin.load(std::memory_order_acquire) != 0) {
            if (opts_.use_hint) hint_.store(tail, std::memory_order_release);
            stats_.count_read_queued();
            return timed_wait_granted(tail, local, deadline);
          }
          stats_.count_read_fast();
          return true;
        }
      } else {
        // Writer at the tail: every path from here waits, so stop once the
        // deadline has passed.
        if (expired) {
          if (rnode != nullptr) free_reader_node(rnode);
          stats_.count_read_timeout();
          return false;
        }
        if (Node* found = scan_for_waiting_reader(tail, local)) {
          if (rnode != nullptr) free_reader_node(rnode);
          if (opts_.use_hint) hint_.store(found, std::memory_order_release);
          stats_.count_read_queued();
          return timed_wait_granted(found, local, deadline);
        }
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(1, std::memory_order_relaxed);
        Node* expected = tail;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          rnode->prev.store(tail, std::memory_order_release);
          tail->qnext.store(rnode, std::memory_order_release);
          rnode->csnzi->open();
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            local.depart_from = rnode;
            if (opts_.use_hint) hint_.store(rnode, std::memory_order_release);
            stats_.count_read_queued();
            return timed_wait_granted(rnode, local, deadline);
          }
          rnode = nullptr;
        }
      }
    }
  }

  void depart_and_handoff(Node* node, const typename CSnzi<M>::Ticket& t) {
    if (node->csnzi->depart(t)) return;
    Node* succ = node->qnext.load(std::memory_order_acquire);
    OLL_CHECK(succ != nullptr);  // the closer linked qnext before closing
    count_handoff(succ->domain);  // read before granting
    fault_perturb(FaultSite::kQueueHandoff);
    grant_spin(succ);
    node->qnext.store(nullptr, std::memory_order_relaxed);
    free_reader_node(node);
  }

  // See foll_lock.hpp: per-domain secondary ring for the domain-first pool
  // search.
  void link_domain_rings() {
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      Node& n = pool_[i];
      n.ring_next_domain = &n;
      for (std::uint32_t step = 1; step <= pool_size_; ++step) {
        Node& cand = pool_[(i + step) % pool_size_];
        if (cand.domain == n.domain) {
          n.ring_next_domain = &cand;
          break;
        }
      }
    }
  }

  std::uint32_t my_domain() const {
    return dmap_.domain_of(this_thread_index());
  }

  void count_handoff(std::uint32_t succ_domain) {
    std::atomic<std::uint64_t>& c = succ_domain == my_domain()
                                        ? wake_cohort_hits_
                                        : wake_cross_domain_;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  Node* alloc_reader_node() {
    Node* start = &pool_[this_thread_index() % pool_size_];
    // Domain-first pass over the same-LLC ring, then the global ring (see
    // foll_lock.hpp for rationale).
    Node* n = start;
    do {
      if (Node* got = try_claim(n)) return got;
      n = n->ring_next_domain;
    } while (n != start);
    SpinWait lap_wait;
    while (true) {
      if (Node* got = try_claim(n)) return got;
      n = n->ring_next;
      if (n == start) lap_wait.pause();
    }
  }

  Node* try_claim(Node* n) {
    if (n->alloc_state.load(std::memory_order_relaxed) != kFree) return nullptr;
    std::uint32_t expected = kFree;
    if (!n->alloc_state.compare_exchange_strong(expected, kInUse,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      return nullptr;
    }
    n->qnext.store(nullptr, std::memory_order_relaxed);
    n->prev.store(nullptr, std::memory_order_relaxed);
    n->domain = my_domain();
    return n;
  }

  void free_reader_node(Node* n) {
    OLL_DCHECK(n->kind == kReaderNode);
    n->alloc_state.store(kFree, std::memory_order_release);
  }

  RollOptions opts_;
  typename M::template Atomic<Node*> tail_{nullptr};
  char pad0_[kFalseSharingRange - sizeof(void*)];
  typename M::template Atomic<Node*> hint_{nullptr};
  char pad1_[kFalseSharingRange - sizeof(void*)];
  DomainMap dmap_;
  // Resolved wait policy: true only when parking is compiled in, the memory
  // model is real, and the caller asked for kSpinThenPark.
  const bool use_park_;
  PerThreadSlots<Local> locals_;
  std::unique_ptr<Node[]> pool_;
  std::uint32_t pool_size_;
  LockStats stats_;
  std::atomic<std::uint64_t> wake_cohort_hits_{0};
  std::atomic<std::uint64_t> wake_cross_domain_{0};
};

}  // namespace oll
