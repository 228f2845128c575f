// FOLL — FIFO OLL reader-writer lock (paper §4.2, Figure 4).
//
// An MCS-style queue lock in which *successive readers share a single queue
// node*: the first reader enqueues a reader node, and readers arriving while
// it is at the tail simply Arrive at that node's C-SNZI instead of touching
// the tail pointer.  A read-only workload therefore writes no central data
// at all after the first acquisition.  Writers enqueue their own node MCS
// style; a writer behind a reader node Closes that node's C-SNZI to cut off
// further readers, and is signalled by the last reader to Depart.
//
// Reader-node recycling (§4.2.1): reader nodes outlive the thread that
// enqueued them (the last reader to depart may be someone else entirely), so
// they come from a per-lock pool — a ring of max_threads nodes, each thread
// starting its search at a distinct default node.  A node's C-SNZI is open
// ONLY while the node is in the queue: it is opened immediately after a
// successful tail CAS and the node is freed only once it is closed with no
// surplus.  This is what makes a delayed Arrive at a recycled node safe: the
// arrival simply fails.
//
// Deviations from Figure 4 (see DESIGN.md §4): we add the missing
// Open(rNode->csnzi) in the tail-is-writer branch, and we clear a node's
// stale qNext when it is re-allocated (the figure leaves a dangling qNext
// from the node's previous queue life, which would instantly satisfy the
// successor-writer's "wait for qNext" spin with a garbage pointer).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

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

struct FollOptions {
  std::uint32_t max_threads = 512;
  CSnziOptions csnzi{};
  // LLC-domain source for the NUMA-aware reader-node pool search and the
  // writer-handoff locality counters; nullptr means csnzi.topology, then
  // Topology::system().  Must outlive the lock.  FOLL's writer arbitration
  // is already a local-spin MCS chain (each waiter spins on its own padded
  // node), so unlike GOLL there is no metalock to replace — topology only
  // affects where reader nodes are allocated and what the stats report.
  const Topology* topology = nullptr;
  // How queued threads block on their node's spin flag.  kSpin is the
  // paper's evaluation setup; kSpinThenPark spins an adaptive budget and
  // then parks on the flag via platform/park.hpp (DESIGN.md §16) —
  // kBlocking has no per-node condvar here and degrades to kSpin.
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

template <typename M = RealMemory>
class FollLock {
 public:
  explicit FollLock(const FollOptions& opts = {})
      : dmap_(opts.topology != nullptr
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
      // Node i is the default node of thread index i; tag it with that
      // thread's LLC domain for the domain-first pool search below.
      pool_[i].domain = dmap_.domain_of(i);
    }
    link_domain_rings();
  }

  FollLock(const FollLock&) = delete;
  FollLock& operator=(const FollLock&) = delete;

  // --- writer side (Figure 4: WriterLock / WriterUnlock) -----------------

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
    grant_node(succ);
    w->qnext.store(nullptr, std::memory_order_relaxed);  // clean up
  }

  // --- reader side (Figure 4: ReaderLock / ReaderUnlock) -----------------

  void lock_shared() {
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    lock_shared_impl();
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) stats_.record_read_acquire(d);
  }

 protected:
  struct Node;  // defined below with the rest of the queue-node machinery

 private:
  // Figure 4's WriterLock body (the public lock() wraps it in the
  // observability begin/end pair).  The wait on w->spin after a failed
  // Close is the reader-drain interval the writer-wait histogram measures;
  // queue waits behind another writer get queue_enter/exit trace events
  // only.
  void lock_impl() {
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();  // published by the release stores below
    w->qnext.store(nullptr, std::memory_order_relaxed);
    Node* old_tail = tail_.exchange(w, std::memory_order_acq_rel);
    if (old_tail == nullptr) {
      stats_.count_write_fast();
      return;
    }
    stats_.count_write_queued();
    w->spin.store(1, std::memory_order_relaxed);
    old_tail->qnext.store(w, std::memory_order_release);
    if (old_tail->kind == kWriterNode) {
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(w->spin);
      obs_end(TraceEventType::kQueueExit, this, qt);
      return;
    }
    // Reader predecessor.  Its enqueuer opens the C-SNZI right after the
    // tail CAS; wait out that window (and any not-yet-recycled state).
    spin_until([&] { return old_tail->csnzi->query().open; });
    // Cut off further readers.  Close() == true means no readers were (or
    // ever will be) using the node, so nobody would signal us: inherit the
    // node's queue position by spinning on ITS spin flag, then recycle it.
    if (old_tail->csnzi->close()) {
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(old_tail->spin);
      obs_end(TraceEventType::kQueueExit, this, qt);
      old_tail->qnext.store(nullptr, std::memory_order_relaxed);
      free_reader_node(old_tail);
    } else {
      // Readers hold the node: this wait IS the drain interval.
      const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
      await_grant(w->spin);
      const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
      if (qt.armed) stats_.record_writer_wait(qd);
    }
  }

  // Figure 4's ReaderLock body (see lock_shared for the observability
  // shell).
  void lock_shared_impl() {
    Local& local = locals_.local();
    Node* rnode = nullptr;
    while (true) {
      Node* tail = tail_.load(std::memory_order_acquire);
      if (tail == nullptr) {
        // Empty queue: enqueue a fresh reader node that starts unlocked.
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(0, std::memory_order_relaxed);
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
          rnode = nullptr;  // inserted: a writer beat our arrival; retry
        }
      } else if (tail->kind == kWriterNode) {
        // Enqueue a reader node that must wait for the writer.
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(1, std::memory_order_relaxed);
        Node* expected = tail;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          tail->qnext.store(rnode, std::memory_order_release);
          rnode->csnzi->open();  // Fig. 4 omission fixed; see header comment
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            local.depart_from = rnode;
            stats_.count_read_queued();  // waiting behind a writer
            const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
            await_grant(rnode->spin);
            obs_end(TraceEventType::kQueueExit, this, qt);
            return;
          }
          rnode = nullptr;  // inserted; do not reuse
        }
      } else {
        // Reader node at the tail: share it.
        local.ticket = tail->csnzi->arrive();
        if (local.ticket.arrived()) {
          if (rnode != nullptr) free_reader_node(rnode);
          local.depart_from = tail;
          if (tail->spin.load(std::memory_order_acquire) == 0) {
            stats_.count_read_fast();  // joined an already-granted group
          } else {
            stats_.count_read_queued();
            const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
            await_grant(tail->spin);
            obs_end(TraceEventType::kQueueExit, this, qt);
          }
          return;
        }
        // Arrival failed: a writer closed this node's C-SNZI, so the tail
        // has necessarily changed; retry.
      }
    }
  }

  // lock_shared_impl's three-case loop with deadline checks.  Waits that
  // have not started yet are skipped once the deadline expires (so an
  // already-expired deadline behaves like try_lock_shared, except that the
  // no-wait acquisitions — empty queue, active reader tail — still
  // succeed); waits in progress are abandoned via timed_reader_wait.
  bool timed_lock_shared_impl(std::chrono::steady_clock::time_point deadline) {
    Local& local = locals_.local();
    Node* rnode = nullptr;
    while (true) {
      Node* tail = tail_.load(std::memory_order_acquire);
      if (tail == nullptr) {
        // Empty queue: acquiring needs no wait, so the deadline is moot.
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(0, std::memory_order_relaxed);
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
          rnode = nullptr;  // inserted: a writer beat our arrival; retry
        }
      } else if (tail->kind == kWriterNode) {
        // Joining here means waiting out the writer; never start a wait we
        // no longer have time for.
        if (std::chrono::steady_clock::now() >= deadline) {
          if (rnode != nullptr) free_reader_node(rnode);
          stats_.count_read_timeout();
          return false;
        }
        if (rnode == nullptr) rnode = alloc_reader_node();
        rnode->spin.store(1, std::memory_order_relaxed);
        Node* expected = tail;
        if (tail_.compare_exchange_strong(expected, rnode,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          tail->qnext.store(rnode, std::memory_order_release);
          rnode->csnzi->open();
          local.ticket = rnode->csnzi->arrive();
          if (local.ticket.arrived()) {
            stats_.count_read_queued();
            if (!timed_reader_wait(rnode, local.ticket, deadline)) {
              return false;
            }
            local.depart_from = rnode;
            return true;
          }
          rnode = nullptr;  // inserted; do not reuse
        }
      } else {
        local.ticket = tail->csnzi->arrive();
        if (local.ticket.arrived()) {
          if (rnode != nullptr) {
            free_reader_node(rnode);
            rnode = nullptr;
          }
          if (tail->spin.load(std::memory_order_acquire) == 0) {
            local.depart_from = tail;
            stats_.count_read_fast();
            return true;
          }
          stats_.count_read_queued();
          if (!timed_reader_wait(tail, local.ticket, deadline)) {
            return false;
          }
          local.depart_from = tail;
          return true;
        }
        // Closed by a writer; the tail has necessarily changed; retry.
      }
    }
  }

  // Timed wait for `node`'s grant after a successful arrival.  True means
  // granted (the caller now holds the lock in shared mode); false means
  // the arrival was abandoned (stats recorded here).
  bool timed_reader_wait(Node* node, const typename CSnzi<M>::Ticket& t,
                         std::chrono::steady_clock::time_point deadline) {
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    bool granted = false;
    if constexpr (kParkable) {
      if (use_park_) {
        // Deadline park on the shared flag.  The parked marker is sticky
        // (park.hpp): timing out leaves kParkedSpin advertised, so a grant
        // racing this timeout still unparks — cheap insurance against a
        // sibling reader asleep on the same word.
        const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           deadline.time_since_epoch())
                           .count();
        ParkWaitOutcome o;
        granted = park_wait_until_u32(
            node->spin, /*wait_val=*/1, kParkedSpin,
            d > 0 ? static_cast<std::uint64_t>(d) : 1, nullptr, &o);
        stats_.count_park_outcome(o.parks, o.spurious, o.wait_ns);
      }
    }
    if (!use_park_) {
      SpinWait w;
      std::uint32_t check = 0;
      for (;;) {
        if (node->spin.load(std::memory_order_acquire) == 0) {
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
    // Timed out: undo the arrival.  A non-last departure (or a last
    // departure from a still-open node) leaves the node in a state the
    // normal protocol already handles (remaining readers keep waiting, or
    // an empty open waiting node that the next writer inherits).
    stats_.count_read_timeout();
    stats_.count_read_abandon();
    if (node->csnzi->depart(t)) return false;
    // Last departure from a closed waiting node.  We cannot signal the
    // closing writer — the lock's current holder has not released — so
    // orphan the node (spin 1 -> 2, or kParkedSpin -> 2: our own sticky
    // marker may still be advertised, and as the last departer there can
    // be no sleeper left behind it) for the granter to forward through.
    std::uint32_t expected = 1;
    if (node->spin.compare_exchange_strong(expected, 2,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return false;
    }
    if (expected == kParkedSpin &&
        node->spin.compare_exchange_strong(expected, 2,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return false;
    }
    // The grant landed between our timeout and the CAS (spin went to 0),
    // so handoff duty is ours after all: pass the grant to the closing
    // writer and recycle the node.  We already departed, so the timeout
    // result stands — the grant is not lost, merely forwarded.
    OLL_DCHECK(expected == 0);
    Node* succ = node->qnext.load(std::memory_order_acquire);
    OLL_CHECK(succ != nullptr);
    node->qnext.store(nullptr, std::memory_order_relaxed);
    grant_node(succ);
    free_reader_node(node);
    return false;
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

  // Succeeds only when the queue is empty (an MCS-style lock cannot back
  // out once its FAS lands, so try_lock is a CAS on an empty tail).  This
  // is conservative: it can fail while no thread holds the lock — e.g. a
  // drained-but-not-yet-recycled reader node still sits at the tail —
  // which the SharedMutex contract permits (try_lock may fail spuriously).
  bool try_lock() {
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();
    w->qnext.store(nullptr, std::memory_order_relaxed);
    Node* expected = nullptr;
    return tail_.compare_exchange_strong(expected, w,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  // Succeeds when the lock is free or the tail is an *active* reader group
  // (joining a waiting group would require blocking behind a writer).
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
      return false;  // a writer raced in and closed; it recycles the node
    }
    if (tail->kind != kReaderNode ||
        tail->spin.load(std::memory_order_acquire) != 0) {
      return false;
    }
    typename CSnzi<M>::Ticket t = tail->csnzi->arrive();
    if (!t.arrived()) return false;
    if (tail->spin.load(std::memory_order_acquire) != 0) {
      // The node was recycled and re-enqueued as a *waiting* group between
      // our spin check and the arrival (spin never goes 0 -> 1 within one
      // queue life); undo the arrival without blocking.
      depart_and_handoff(tail, t);
      return false;
    }
    local.ticket = t;
    local.depart_from = tail;
    return true;
  }

  // --- timed acquisition (DESIGN.md §11) ----------------------------------

 private:
  // Timed-writer reclaim of a drained reader tail.  The empty-tail
  // try_lock can fail FOREVER on a free lock: a reader group that drains
  // in place stays at the tail until a blocking writer closes it, so a
  // deadline_retry over try_lock alone starves once any read completes.
  // When the tail is a granted, open, zero-surplus reader node, the timed
  // writer performs the blocking writer's enqueue-and-close takeover
  // itself.  The tail CAS is the commit point: past it we are an ordinary
  // blocking writer, so the deadline can be overshot by the critical
  // sections of readers that race in between the query and the Close —
  // bounded by in-flight readers, never by other writers (a writer tail
  // makes us decline before the CAS).
  bool timed_write_reclaim() {
    Node* tail = tail_.load(std::memory_order_acquire);
    if (tail == nullptr || tail->kind != kReaderNode) return false;
    if (tail->spin.load(std::memory_order_acquire) != 0) return false;
    const SnziQuery q = tail->csnzi->query();
    if (!q.open || q.nonzero) return false;
    Node* w = &locals_.local().wnode;
    w->domain = my_domain();
    w->qnext.store(nullptr, std::memory_order_relaxed);
    w->spin.store(1, std::memory_order_relaxed);
    Node* expected = tail;
    if (!tail_.compare_exchange_strong(expected, w,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;  // tail moved under us: no commitment made
    }
    stats_.count_write_queued();
    tail->qnext.store(w, std::memory_order_release);
    if (tail->csnzi->close()) {
      // Still drained: inherit the node's queue position.  The wait
      // mirrors lock_impl and only matters in the recycle-and-re-enqueue
      // ABA window (spin never goes 0 -> 1 within one queue life).
      await_grant(tail->spin);
      tail->qnext.store(nullptr, std::memory_order_relaxed);
      free_reader_node(tail);
      return true;
    }
    // Readers raced in before the Close; the last one to depart signals us
    // (depart_and_handoff -> grant_node).  This is the drain interval.
    const ObsTimer qt = obs_begin(TraceEventType::kQueueEnter, this);
    await_grant(w->spin);
    const std::uint64_t qd = obs_end(TraceEventType::kQueueExit, this, qt);
    if (qt.armed) stats_.record_writer_wait(qd);
    return true;
  }

 public:
  // Writer side: an MCS fetch-and-store cannot be backed out, so the timed
  // writer is a deadline-bounded retry over the empty-tail try_lock plus
  // the drained-tail reclaim above — conservative (loses queue position)
  // but correct; see locks/timed.hpp.
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

  // Reader side: a genuine enqueue-and-abandon — the arrival is undone
  // with a Depart on timeout, and a last-departer that cannot take handoff
  // duty (the closing writer's turn has not come) orphans the node for the
  // eventual granter to reap (grant_node).
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

  // --- introspection -------------------------------------------------------
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

 protected:
  enum NodeKind : std::uint8_t { kReaderNode, kWriterNode };
  enum AllocState : std::uint32_t { kFree = 0, kInUse = 1 };

  // Spin-flag values within one queue life: 1 = waiting, 0 = granted,
  // 2 = orphaned (all timed readers abandoned; see grant_node), and — under
  // kSpinThenPark only — kParkedSpin = waiting with (possibly) parked
  // sleepers.  3 (not 2) because the orphan tombstone already owns 2.
  // Multiple readers share one node's flag, so granters unpark_all.
  static constexpr std::uint32_t kParkedSpin = 3;

  // Parking needs a real kernel-parkable word (std::atomic).  Sim memory
  // models degrade to pure spinning.
  static constexpr bool kParkable =
      std::is_same_v<typename M::template Atomic<std::uint32_t>,
                     std::atomic<std::uint32_t>>;

  struct alignas(kFalseSharingRange) Node {
    NodeKind kind = kWriterNode;
    typename M::template Atomic<Node*> qnext{nullptr};
    typename M::template Atomic<std::uint32_t> spin{0};
    typename M::template Atomic<std::uint32_t> alloc_state{kFree};
    std::unique_ptr<CSnzi<M>> csnzi;  // reader nodes only
    Node* ring_next = nullptr;
    // Secondary ring over pool nodes whose default-owner threads share this
    // node's LLC domain (immutable after construction).
    Node* ring_next_domain = nullptr;
    // Writer nodes: owner thread's domain, written by the owner before the
    // enqueue's release stores.  Reader nodes: allocator thread's domain,
    // written between the alloc CAS and the enqueue.  Read by the granting
    // thread before it sets `spin` (handoff-locality counters).
    std::uint32_t domain = 0;

    void init_reader(const CSnziOptions& opts) {
      kind = kReaderNode;
      csnzi = std::make_unique<CSnzi<M>>(opts);
      // Pool invariant: a free node's C-SNZI is closed with no surplus.
      bool was_open_empty = csnzi->close();
      OLL_CHECK(was_open_empty);
    }
  };

  struct Local {
    Node wnode;  // this thread's writer node for this lock (immutable role)
    Node* depart_from = nullptr;
    typename CSnzi<M>::Ticket ticket{};
  };

  // Depart from `node`; if ours was the last departure from a closed
  // C-SNZI, signal the closing writer and recycle the node (the tail half
  // of Figure 4's ReaderUnlock).
  void depart_and_handoff(Node* node, const typename CSnzi<M>::Ticket& t) {
    if (node->csnzi->depart(t)) return;
    // The writer that closed the C-SNZI linked its node into qnext BEFORE
    // closing, so the successor must exist.
    Node* succ = node->qnext.load(std::memory_order_acquire);
    OLL_CHECK(succ != nullptr);
    node->qnext.store(nullptr, std::memory_order_relaxed);  // clean up
    grant_node(succ);
    free_reader_node(node);
  }

  // Block until `word` (a node's spin flag) reads 0 — granted.  Under
  // kSpinThenPark the waiter advertises kParkedSpin and parks on the word
  // itself; the grant_node exchange below observes the marker and unparks.
  // Park outcome feeds the per-lock LockStats.
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

  // Grant the queue position held by `succ`, forwarding through orphans.
  //
  // A reader node whose spin flag was CASed 1 -> 2 is *orphaned*: every
  // reader that arrived at it abandoned a timed wait (DESIGN.md §11), so
  // nobody is left to consume the grant or to later signal the closing
  // writer linked behind it.  The granter detects this with an exchange and
  // forwards the grant through the orphan, recycling it here.  At most one
  // forwarding hop can occur: a node is only orphaned after a writer closed
  // it (so a writer node follows it in the queue), adjacent reader nodes
  // are impossible, and writer nodes are never orphaned.
  void grant_node(Node* succ) {
    while (true) {
      count_handoff(succ->domain);  // read before granting: succ may recycle
      fault_perturb(FaultSite::kQueueHandoff);
      std::uint32_t prev;
      if constexpr (kParkable) {
        // The exchange-displaces-marker half of the §16.2 pairing; the
        // plain exchange stays on the pure-spin hot path.  unpark_all:
        // a reader node's flag may have several parked sleepers.
        prev = use_park_ ? park_grant_u32(succ->spin, /*grant_val=*/0,
                                          kParkedSpin, /*all=*/true)
                         : succ->spin.exchange(0, std::memory_order_acq_rel);
        if (prev == kParkedSpin) stats_.count_unparks(1);
      } else {
        prev = succ->spin.exchange(0, std::memory_order_acq_rel);
      }
      if (prev != 2) return;
      // Orphaned: the closing writer behind it must exist (qnext was linked
      // before the Close that made abandonment possible).
      Node* next = succ->qnext.load(std::memory_order_acquire);
      OLL_CHECK(next != nullptr);
      succ->qnext.store(nullptr, std::memory_order_relaxed);
      free_reader_node(succ);
      succ = next;
    }
  }

  // Close the per-domain rings: within each LLC domain, nodes link to the
  // next pool node of the same domain (wrapping).  Single-domain hosts get
  // a ring identical to ring_next.
  void link_domain_rings() {
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      Node& n = pool_[i];
      n.ring_next_domain = &n;  // self-loop fallback (degenerate domains)
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

  // Handoff-locality accounting: one writer at a time (the lock holder is
  // the only granting thread), relaxed concurrent readers (stats()).
  void count_handoff(std::uint32_t succ_domain) {
    std::atomic<std::uint64_t>& c = succ_domain == my_domain()
                                        ? wake_cohort_hits_
                                        : wake_cross_domain_;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  Node* alloc_reader_node() {
    Node* start = &pool_[this_thread_index() % pool_size_];
    // Domain-first pass: one lap over the same-LLC ring, so a reader group's
    // node — the line every group member Arrives at and the granting writer
    // touches — tends to live in the enqueuer's own cache domain.
    Node* n = start;
    do {
      if (Node* got = try_claim(n)) return got;
      n = n->ring_next_domain;
    } while (n != start);
    // Fallback: the global ring (a free node always exists when threads <=
    // pool size — §4.2.1's counting argument — but possibly in another
    // domain).  The scan is not atomic; breathe per lap.
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
    // Scrub state left over from the node's previous queue life, and tag
    // the node with the allocator's domain (safe: the node is out of every
    // queue, so no granting thread can be reading it).
    n->qnext.store(nullptr, std::memory_order_relaxed);
    n->domain = my_domain();
    return n;
  }

  void free_reader_node(Node* n) {
    OLL_DCHECK(n->kind == kReaderNode);
    OLL_DCHECK(n->alloc_state.load(std::memory_order_relaxed) == kInUse);
    // Single-releaser invariant (§4.2.1): no CAS needed.
    n->alloc_state.store(kFree, std::memory_order_release);
  }

  typename M::template Atomic<Node*> tail_{nullptr};
  char pad_[kFalseSharingRange - sizeof(void*)];
  DomainMap dmap_;
  // Resolved wait policy: true iff kSpinThenPark on a parkable word.
  const bool use_park_;
  PerThreadSlots<Local> locals_;
  std::unique_ptr<Node[]> pool_;
  std::uint32_t pool_size_;
  LockStats stats_;
  std::atomic<std::uint64_t> wake_cohort_hits_{0};
  std::atomic<std::uint64_t> wake_cross_domain_{0};
};

}  // namespace oll
