// Wait queue with reader-group coalescing — the user-space stand-in for the
// Solaris turnstile (§3.1), shared by the GOLL and Solaris-like locks.
//
// Threads that must sleep enqueue a WaitNode (stack-allocated) and spin on
// its `granted` flag through a spin-based "condition variable", exactly as
// the paper's own evaluation does ("we used our own spin-based condition
// variables to eliminate the cost of context switching", §5.1).  Consecutive
// readers — and, under the default Solaris-style policy, readers arriving
// while writers already wait — coalesce into a single *group* so a releasing
// thread can hand the lock to the whole group at once (the Solaris lock
// "sets the reader counter to the number of readers in that group and wakes
// them up").
//
// Under kSpin a WaitNode is nothing but a cache-line-padded local-spin flag
// plus metalock-protected links; the kBlocking parking state (mutex +
// condition variable) is allocated on demand by arm(), so the spin
// configuration the paper evaluates never constructs or carries it.
//
// NUMA cohort handoff (cohort_budget > 0): each node records its waiter's
// LLC domain at arm() time, and a releasing thread may ask dequeue() to
// prefer a *writer* in its own domain over the FIFO head — restricted to
// the leading run of consecutive writer groups (a writer never overtakes a
// reader group, preserving the reader/writer alternation policy), and to at
// most `cohort_budget` consecutive preferred grants before strict FIFO
// resumes.  A skipped writer therefore waits at most cohort_budget extra
// grants: bounded unfairness in exchange for keeping the lock word, queue
// head and C-SNZI root inside one cache domain (see DESIGN.md §10).
//
// Group wakeup (tree_wake): linearly waking a group of N readers puts N
// remote flag stores on the *granter's* critical path — the last store
// trails the first by N cache-line transfers.  With tree_wake the granter
// instead threads the (frozen) member list into an implicit BFS binary tree
// using plain pointer writes and sets only the leader's flag; each waiter
// forwards the grant to its two children as it wakes, so the furthest
// waiter is ceil(log2 N) transfers away and the fan-out runs on the woken
// threads' own cycles.  The seed's linear wake remains the default (and the
// metalock=tatas baseline's behavior).
//
// Concurrency contract:
//   * enqueue/dequeue/remove/num_writers/empty are called ONLY while holding
//     the lock's metalock.
//   * GroupRef::signal_all is called after releasing the metalock; it reads
//     each node's intrusive `next_in_group` pointer BEFORE setting that
//     node's granted flag, because the owning thread may destroy its stack
//     node the instant the flag is set.  Under tree_wake the child pointers
//     are written before the leader's flag and published to each waiter by
//     the release/acquire chain through the flags; a waiter reads only its
//     OWN child pointers (its node is alive — it is standing in wait()).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/park.hpp"
#include "platform/spin.hpp"

namespace oll {

enum class ReqKind : std::uint8_t { kReader, kWriter };

// How queued threads block (paper §1/§5.1): production locks deschedule
// waiting threads (Solaris turnstiles put them to sleep); the paper's own
// user-space evaluation substitutes spin-based condition variables "to
// eliminate the cost of context switching".  All three are available here:
//   kSpin         — busy-wait with progressive yield (the evaluation setup).
//   kBlocking     — spin briefly, then sleep on a per-node mutex+condvar
//                   (the pre-park production setup; kept for comparison).
//   kSpinThenPark — adaptive spin (platform/park.hpp controller), then park
//                   on the granted word itself via the futex-backed
//                   substrate (DESIGN.md §16).  Degrades to kSpin in the
//                   virtual-time simulator (whose atomics are not
//                   kernel-parkable words).
enum class WaitStrategy : std::uint8_t { kSpin, kBlocking, kSpinThenPark };

// The per-lock waiting-policy knob (factory plumbing, lock Options structs)
// is the wait strategy; the alias names the concept at the API surface.
using WaitPolicy = WaitStrategy;

inline const char* wait_policy_name(WaitPolicy p) {
  switch (p) {
    case WaitPolicy::kSpin: return "spin";
    case WaitPolicy::kBlocking: return "blocking";
    case WaitPolicy::kSpinThenPark: return "park";
  }
  return "?";
}

template <typename M = RealMemory>
class WaitQueue {
 public:
  struct alignas(kFalseSharingRange) WaitNode {
    typename M::template Atomic<std::uint32_t> granted{0};
    // Links below are metalock-protected plain fields.
    WaitNode* next_in_group = nullptr;
    WaitNode* next_group = nullptr;  // valid on group leaders only
    WaitNode* prev_group = nullptr;  // valid on group leaders only
    // Tree-wake children (see GroupRef::signal_all): written by the granting
    // thread before it sets the subtree root's flag, read by each waiter
    // only after observing its own flag — the release/acquire chain through
    // the flags publishes them.
    WaitNode* child[2] = {nullptr, nullptr};
    std::uint32_t group_count = 0;   // valid on group leaders only
    std::uint32_t domain = 0;        // waiter's LLC domain (cohort handoff)
    ReqKind kind = ReqKind::kReader;
    WaitStrategy strategy = WaitStrategy::kSpin;

    // kSpinThenPark is only meaningful when the flag is a real kernel-
    // parkable word (std::atomic).  The simulator's instrumented atomics
    // degrade to kSpin at arm() time, keeping sim schedules bit-for-bit.
    static constexpr bool kParkable =
        std::is_same_v<typename M::template Atomic<std::uint32_t>,
                       std::atomic<std::uint32_t>>;

    // `granted` values under kSpinThenPark: 0 = waiting (spinning),
    // kParkedFlag = waiting with the owner (possibly) parked on the word,
    // 1 = granted.  Only the owner CASes 0 -> kParkedFlag; the granter's
    // exchange(1) observes kParkedFlag iff the owner advertised a park and
    // then — and only then — issues the unpark: the single-word
    // consume-or-wake pairing of DESIGN.md §16.2.
    static constexpr std::uint32_t kParkedFlag = 2;

    // Park outcome of the last wait (kSpinThenPark only): plain fields,
    // written by the owning thread during wait, read by the lock code
    // after wait() returns for LockStats attribution.
    ParkWaitOutcome park_outcome{};

    // kBlocking parking state, absent under kSpin (the paper-evaluation
    // configuration's node is just the local-spin flag + links).
    struct Parking {
      std::mutex m;
      std::condition_variable cv;
    };
    std::unique_ptr<Parking> parking;

    // Configure the node before enqueueing (and before the metalock is
    // taken — the kBlocking allocation must not happen under a spinlock).
    void arm(WaitStrategy s, std::uint32_t dom = 0) {
      if (s == WaitStrategy::kSpinThenPark && !kParkable) {
        s = WaitStrategy::kSpin;
      }
      strategy = s;
      domain = dom;
      park_outcome = ParkWaitOutcome{};
      if (s == WaitStrategy::kBlocking && parking == nullptr) {
        parking = std::make_unique<Parking>();
      }
    }

    // Block until a releasing thread hands us the lock.  Ownership is
    // transferred *before* the flag is set, so the thread owns the lock on
    // wakeup (no re-check loop), mirroring the Solaris handoff discipline.
    void wait() {
      wait_granted();
      // Tree wake: forward the grant to our subtree.  The granting thread
      // wrote these (plain) pointers before setting the flag we just
      // observed, so the release/acquire chain publishes them; a linear
      // wake leaves both null.  Our own node is alive (we are standing in
      // it); each child is alive because it is still spinning in wait().
      WaitNode* c0 = child[0];
      WaitNode* c1 = child[1];
      if (c0 != nullptr) c0->grant();
      if (c1 != nullptr) c1->grant();
    }

    // Deadline-bounded wait (timed acquisition, DESIGN.md §11).  Returns
    // true once granted; false if `deadline` (steady clock) passes first.
    // A false return does NOT end the protocol: the node is still queued
    // and may be granted at any instant, so the caller must either unlink
    // it with WaitQueue::try_abandon (under the metalock) or — if the
    // abandon fails because the group was already dequeued — fall back to
    // wait() and consume the grant (the timed contract permits acquiring
    // after the deadline).  Unlike wait(), a grant observed here does NOT
    // forward tree-wake children; call wait() (which returns immediately)
    // to fan out, keeping the forwarding logic in one place.
    bool wait_until_granted(std::chrono::steady_clock::time_point deadline) {
      if (strategy == WaitStrategy::kSpin) {
        SpinWait w;
        std::uint32_t check = 0;
        for (;;) {
          if (granted.load(std::memory_order_acquire) != 0) return true;
          // Poll the clock every few pauses; a syscall-free spin loop must
          // not pay a clock read per iteration.
          if ((++check & 15u) == 0 &&
              std::chrono::steady_clock::now() >= deadline) {
            return granted.load(std::memory_order_acquire) != 0;
          }
          w.pause();
        }
      }
      if constexpr (kParkable) {
        if (strategy == WaitStrategy::kSpinThenPark) {
          // Deadline park.  On timeout the parked flag stays advertised
          // (sticky marker, see park.hpp): the caller runs the
          // abandon-or-consume protocol, and a grant racing the timeout
          // still sees kParkedFlag and issues its (now superfluous but
          // harmless) unpark — cancel never swallows anyone else's wake.
          const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             deadline.time_since_epoch())
                             .count();
          return park_wait_until_u32(
              granted, /*wait_val=*/0, kParkedFlag,
              d > 0 ? static_cast<std::uint64_t>(d) : 1, nullptr,
              &park_outcome);
        }
      }
      return blocking_wait(&deadline);
    }

    // Called by GroupRef::signal_all.  For blocking waiters the flag store
    // happens under the node mutex: the waiter either sees it before
    // sleeping or is woken by notify.  The waiter may destroy the node the
    // moment it observes granted != 0, so (as with the spin path) nothing
    // may touch the node after this returns — cv.notify_one is called
    // under the mutex for exactly that reason (the waiter cannot finish
    // cv.wait until we release the mutex inside this function), and a
    // waiter that sees the flag in its pre-park spin instead passes through
    // the mutex before returning (blocking_wait), so it cannot destroy the
    // mutex and condvar while we are still inside them.  For
    // kSpinThenPark the exchange displaces whatever marker the waiter
    // advertised; unpark_one never dereferences the (possibly already
    // destroyed) node, so the same lifetime contract holds.  Returns true
    // iff the grant had to issue an unpark (per-lock unparks attribution).
    bool grant() {
      if (strategy == WaitStrategy::kSpin) {
        granted.store(1, std::memory_order_release);
        return false;
      }
      if constexpr (kParkable) {
        if (strategy == WaitStrategy::kSpinThenPark) {
          return park_grant_u32(granted, /*grant_val=*/1, kParkedFlag,
                                /*all=*/false) == kParkedFlag;
        }
      }
      blocking_grant();
      return false;
    }

   private:
    // The kBlocking halves of the waits and of grant(), out of line and
    // cold: kBlocking is kept for comparison only, so its mutex/condvar
    // code stays out of the spin paths' instruction stream.
    //
    // A short optimistic spin, then sleep on the condvar until granted or
    // until *deadline (nullptr: no deadline).  `granted` is set under
    // `parking->m` by blocking_grant(), so the sleep/wake handshake cannot
    // be lost.  A flag seen during the spin was observed outside the
    // mutex: the granter may still be inside blocking_grant(), holding the
    // mutex and about to notify, and returning at once would let the
    // caller destroy the node — mutex and condvar included — under it.
    // Taking the mutex once waits the granter out; after its unlock it
    // never touches the node again.
    [[gnu::cold, gnu::noinline]] bool blocking_wait(
        const std::chrono::steady_clock::time_point* deadline) {
      OLL_DCHECK(parking != nullptr);
      SpinWait w;
      for (unsigned i = 0; i < 2 * SpinWait::kDefaultSpinLimit; ++i) {
        if (granted.load(std::memory_order_acquire) != 0) {
          std::lock_guard<std::mutex> g(parking->m);
          return true;
        }
        w.pause();
      }
      const auto is_granted = [&] {
        return granted.load(std::memory_order_acquire) != 0;
      };
      std::unique_lock<std::mutex> g(parking->m);
      if (deadline == nullptr) {
        parking->cv.wait(g, is_granted);
        return true;
      }
      return parking->cv.wait_until(g, *deadline, is_granted);
    }

    [[gnu::cold, gnu::noinline]] void blocking_grant() {
      OLL_DCHECK(parking != nullptr);
      std::lock_guard<std::mutex> g(parking->m);
      granted.store(1, std::memory_order_release);
      // Widens the store-to-notify window for the lifetime regression
      // tests (mechanism_test BlockingWaiters.*HandoffNeverOutlivesWaitNode).
      fault_perturb(FaultSite::kQueueHandoff);
      parking->cv.notify_one();
    }

    // Block until granted (the strategy-specific half of wait()).
    void wait_granted() {
      if (strategy == WaitStrategy::kSpin) {
        spin_until(
            [&] { return granted.load(std::memory_order_acquire) != 0; });
        return;
      }
      if constexpr (kParkable) {
        if (strategy == WaitStrategy::kSpinThenPark) {
          (void)park_wait_u32(granted, /*wait_val=*/0, kParkedFlag,
                              &park_outcome);
          return;
        }
      }
      (void)blocking_wait(nullptr);
    }
  };

  // Value-type snapshot of a dequeued group, safe to use after the metalock
  // is released (the queue no longer references these nodes).
  class GroupRef {
   public:
    GroupRef() = default;
    GroupRef(WaitNode* leader, ReqKind kind, std::uint32_t count,
             bool tree_wake = false)
        : leader_(leader), kind_(kind), count_(count), tree_wake_(tree_wake) {}

    bool empty() const noexcept { return leader_ == nullptr; }
    ReqKind kind() const noexcept { return kind_; }
    std::uint32_t count() const noexcept { return count_; }
    // Leader's LLC domain; meaningful for writer groups (single node).
    std::uint32_t domain() const noexcept {
      return leader_ != nullptr ? leader_->domain : 0;
    }

    // Wake every thread in the group.  See the concurrency contract above.
    // Returns the number of grants that issued an unpark (kSpinThenPark
    // waiters that had advertised a park) so the releasing lock can feed
    // its per-lock unparks counter.  Tree-wake fan-out grants issued by
    // the woken waiters themselves are counted only in the global
    // substrate stats, not here (the releaser never sees them).
    std::uint32_t signal_all() const {
      std::uint32_t unparked = 0;
      if (!tree_wake_ || count_ <= 1) {
        WaitNode* n = leader_;
        while (n != nullptr) {
          WaitNode* next = n->next_in_group;  // read before granting!
          if (n->grant()) ++unparked;
          n = next;
        }
        return unparked;
      }
      // Tree wake: thread the member list into an implicit BFS binary tree
      // — the parent of member i is member (i-1)/2, reachable by walking
      // the same list at half speed — then set only the leader's flag.
      // Every node is still spinning (plain writes are unobserved until the
      // flag chain publishes them), and wait() fans the grant out.
      WaitNode* parent = leader_;
      int slot = 0;
      for (WaitNode* n = leader_->next_in_group; n != nullptr;
           n = n->next_in_group) {
        parent->child[slot] = n;
        if (++slot == 2) {
          slot = 0;
          parent = parent->next_in_group;
        }
      }
      if (leader_->grant()) ++unparked;
      return unparked;
    }

   private:
    WaitNode* leader_ = nullptr;
    ReqKind kind_ = ReqKind::kReader;
    std::uint32_t count_ = 0;
    bool tree_wake_ = false;
  };

  // If `readers_coalesce_over_writers` (the paper's evaluation policy, §5.1
  // footnote 1), a new reader joins the most recent waiting reader group
  // even when writers queued after that group.  If false, strict FIFO
  // groups.  `cohort_budget` > 0 enables the domain-preferring writer
  // dequeue (see file comment); 0 keeps pure FIFO grants.  `tree_wake`
  // selects the log-depth group wakeup (see file comment).
  explicit WaitQueue(bool readers_coalesce_over_writers = true,
                     std::uint32_t cohort_budget = 0, bool tree_wake = false)
      : coalesce_(readers_coalesce_over_writers),
        cohort_budget_(cohort_budget),
        tree_wake_(tree_wake) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Metalock held.  `node` is the caller's (typically stack) wait node,
  // already arm()ed with its strategy and domain.
  void enqueue(WaitNode* node, ReqKind kind) {
    node->granted.store(0, std::memory_order_relaxed);
    node->next_in_group = nullptr;
    node->next_group = nullptr;
    node->prev_group = nullptr;
    node->child[0] = nullptr;
    node->child[1] = nullptr;
    node->kind = kind;
    node->group_count = 1;
    if (kind == ReqKind::kReader) {
      WaitNode* target = coalesce_ ? last_reader_group_
                                   : (tail_ && tail_->kind == ReqKind::kReader
                                          ? tail_
                                          : nullptr);
      if (target != nullptr) {
        // Push onto the existing group's member list (leader stays leader).
        node->next_in_group = target->next_in_group;
        target->next_in_group = node;
        ++target->group_count;
        return;
      }
      // Track the coalescing target only under the policy that reads it.
      // Strict FIFO can hold several reader groups at once; recording each
      // new leader here used to leave the field pointing at whichever group
      // was created last — a stale pointer to a popped (stack-allocated,
      // destroyed) node the moment any dequeue path other than a head pop
      // exists.  Under coalescing there is at most one queued reader group
      // (readers always join it), so the field is exactly "the queued reader
      // group, if any" and dequeue() can clear it locally.
      if (coalesce_) last_reader_group_ = node;
    } else {
      ++num_writers_;
    }
    // New group at the tail.
    if (tail_ == nullptr) {
      head_ = tail_ = node;
    } else {
      tail_->next_group = node;
      node->prev_group = tail_;
      tail_ = node;
    }
  }

  // Metalock held.  Pops the head group; empty GroupRef if queue is empty.
  GroupRef dequeue() {
    cohort_streak_ = 0;  // a FIFO grant resets the preference budget
    return pop_group(head_);
  }

  // Metalock held.  Domain-preferring dequeue: when the head is a writer
  // and a writer in `releaser_domain` exists within the leading run of
  // consecutive writer groups (bounded scan), grant that one instead —
  // for at most cohort_budget consecutive preferred grants.  Reader groups
  // are never skipped and never reordered.  Falls back to plain FIFO when
  // cohorting is disabled or no candidate qualifies.
  GroupRef dequeue(std::uint32_t releaser_domain) {
    if (cohort_budget_ == 0 || head_ == nullptr ||
        head_->kind != ReqKind::kWriter) {
      return dequeue();
    }
    if (head_->domain == releaser_domain) {
      // FIFO and intra-domain at once: the best case, free of charge.
      bump(wake_cohort_hits_);
      cohort_streak_ = 0;
      return pop_group(head_);
    }
    if (cohort_streak_ >= cohort_budget_) {
      // Budget exhausted: strict FIFO until the next natural head grant.
      bump(wake_cross_domain_);
      return dequeue();
    }
    // Scan the leading writer run for a same-domain writer.  Bounded: the
    // metalock is held, so the walk must stay short.
    WaitNode* n = head_->next_group;
    for (std::uint32_t hops = 0;
         n != nullptr && n->kind == ReqKind::kWriter && hops < kMaxCohortScan;
         ++hops, n = n->next_group) {
      if (n->domain == releaser_domain) {
        ++cohort_streak_;
        bump(wake_cohort_hits_);
        return pop_group(n);
      }
    }
    bump(wake_cross_domain_);
    return dequeue();
  }

  // Metalock held.  Unlink a just-enqueued group leader again — the
  // enqueue-undo path of the metalock-eliding release protocol (see
  // goll_lock.hpp).  `node` must still be a group leader, which is
  // guaranteed when it was enqueued into an empty queue and the metalock
  // has been held continuously since (nothing can have joined or popped
  // it).  No wakeup happens: the caller owns the node and simply reuses
  // or destroys it.
  void remove(WaitNode* node) { (void)pop_group(node); }

  // Metalock held.  Abandon a timed wait: if `node` is still queued, unlink
  // it and return true — the caller then owns the node again and no grant
  // will ever touch it (grants are issued only to nodes reachable from the
  // group list at dequeue time, and dequeue/abandon are serialized by the
  // metalock).  Returns false if the node is NOT queued: its group was
  // already dequeued, a grant is in flight (or delivered), and the caller
  // MUST consume it with wait() — ownership was transferred before the
  // flag store, so discarding it would strand the lock.
  //
  // Handles every queue position: a group leader with members (the next
  // member is promoted to leader, inheriting the group links and remaining
  // count), a solo leader (reader or writer — pop_group, which also
  // maintains num_writers_ and last_reader_group_), and a mid-chain group
  // member.  The scan is O(queued groups + members of this group); fine
  // for an abandonment path that runs at most once per timed-out wait.
  bool try_abandon(WaitNode* node) {
    for (WaitNode* leader = head_; leader != nullptr;
         leader = leader->next_group) {
      if (leader == node) {
        WaitNode* heir = node->next_in_group;
        if (heir == nullptr) {
          (void)pop_group(node);
          return true;
        }
        // Promote the next member: same group, one fewer waiter.
        heir->next_group = node->next_group;
        heir->prev_group = node->prev_group;
        heir->group_count = node->group_count - 1;
        heir->kind = node->kind;
        if (heir->prev_group != nullptr) {
          heir->prev_group->next_group = heir;
        } else {
          head_ = heir;
        }
        if (heir->next_group != nullptr) {
          heir->next_group->prev_group = heir;
        } else {
          tail_ = heir;
        }
        if (last_reader_group_ == node) last_reader_group_ = heir;
        return true;
      }
      if (leader->kind == ReqKind::kReader) {
        for (WaitNode* m = leader; m->next_in_group != nullptr;
             m = m->next_in_group) {
          if (m->next_in_group == node) {
            m->next_in_group = node->next_in_group;
            OLL_DCHECK(leader->group_count > 1);
            --leader->group_count;
            return true;
          }
        }
      }
    }
    return false;
  }

  // Metalock held.
  bool empty() const noexcept { return head_ == nullptr; }
  std::uint32_t num_writers() const noexcept { return num_writers_; }
  ReqKind head_kind() const noexcept {
    OLL_DCHECK(head_ != nullptr);
    return head_->kind;
  }

  // Cohort wake counters: writer grants that stayed in the releaser's
  // domain vs. grants (or budget fallbacks) that crossed domains.  Single
  // writer at a time (the metalock holder), relaxed concurrent readers.
  std::uint64_t wake_cohort_hits() const {
    return wake_cohort_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t wake_cross_domain() const {
    return wake_cross_domain_.load(std::memory_order_relaxed);
  }

 private:
  // Upper bound on the preferred-writer scan; keeps the metalock critical
  // section O(1) however long the writer run grows.
  static constexpr std::uint32_t kMaxCohortScan = 8;

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Unlink `leader`'s group from the group list (head, middle or tail) and
  // return its GroupRef.  Null-safe: returns an empty ref.
  GroupRef pop_group(WaitNode* leader) {
    if (leader == nullptr) return GroupRef{};
    WaitNode* prev = leader->prev_group;
    WaitNode* next = leader->next_group;
    if (prev != nullptr) {
      prev->next_group = next;
    } else {
      head_ = next;
    }
    if (next != nullptr) {
      next->prev_group = prev;
    } else {
      tail_ = prev;
    }
    if (leader->kind == ReqKind::kWriter) {
      OLL_DCHECK(num_writers_ > 0);
      --num_writers_;
    } else if (leader == last_reader_group_) {
      // Popping the (unique) coalescing target: clear it so later readers
      // start a fresh group instead of chaining onto freed stack nodes.
      last_reader_group_ = nullptr;
    }
    return GroupRef{leader, leader->kind, leader->group_count, tree_wake_};
  }

  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  // Coalescing policy only: leader of the single queued reader group, or
  // null.  Strict FIFO leaves it null (enqueue joins via tail_ instead).
  WaitNode* last_reader_group_ = nullptr;
  std::uint32_t num_writers_ = 0;
  bool coalesce_;
  std::uint32_t cohort_budget_;
  bool tree_wake_;
  // Consecutive preferred (non-FIFO) writer grants since the last head pop.
  std::uint32_t cohort_streak_ = 0;
  std::atomic<std::uint64_t> wake_cohort_hits_{0};
  std::atomic<std::uint64_t> wake_cross_domain_{0};
};

}  // namespace oll
