// Flat-combining publication pool for delegated writer critical sections
// (DESIGN.md §15).
//
// A writer that loses the acquire race can *publish* its critical section —
// a type-erased closure — into a per-thread combining slot instead of
// queueing for ownership.  The current write holder drains pending slots and
// executes them in-cache before releasing, so a combined operation pays no
// metalock handoff and no wait-queue wake, and the data it mutates stays in
// the combiner's cache instead of migrating line-by-line to a new owner
// ("Lock-Free Locks Revisited"; PAPERS.md).
//
// Structure, following the classic flat-combining publication list:
//
//   * One cache-aligned Slot per thread, in a block the first publish()
//     allocates (a pay-for-use block, locks/per_thread.hpp): a lock whose
//     writers never delegate — every lock with combining off — has none.
//     A slot is enrolled into a grow-only intrusive list the first time
//     its thread delegates; it is never unlinked, so the combiner's walk
//     needs no hazard protection and visits only threads that ever
//     delegated.
//   * Slot life cycle: kEmpty -> kPending (owner publishes closure, release
//     store) -> kExecuting (combiner claims by CAS) -> kDone (combiner
//     finished, release store; any exception parked in `ex`) -> kEmpty
//     (owner consumes the result).  The owner may also retract a still-
//     kPending slot by CAS to take a conventional acquire path.
//   * `dirty_` is an approximate population hint so an unlock with no
//     delegations pays one shared load, not a list walk.  It is a
//     test-and-set flag, not a counter: under a delegation burst the first
//     publisher sets it and the rest see it already set and write nothing —
//     a counter here would be a shared RMW per delegated op, i.e. exactly
//     the centralized traffic combining exists to remove.  The flag may
//     lag (a publish racing a drain's clear can be missed for one round);
//     the publisher's own close-attempt/fallback path restores liveness,
//     so the hint only ever costs latency, never correctness.
//
// Execution-context contract: a delegated closure runs on the *combiner's*
// thread.  Closures must therefore not rely on thread identity — no
// thread_local access, no recursive acquisition of this or any other lock
// ordered against it, no thread-affine external state.  RwProtected::
// with_write documents the same rule at the typed layer.
//
// Invariant the locks rely on: slots are claimed (kPending -> kExecuting)
// only by a thread holding the lock exclusively, and every claim is driven
// to kDone before that holder releases.  Hence whenever the lock is free,
// no slot is kExecuting — a delegator that manages to acquire the lock
// finds its own slot either still kPending (retract and run inline) or
// already kDone (someone combined it first).
#pragma once

#include <cstdint>
#include <exception>
#include <utility>

#include "locks/per_thread.hpp"
#include "platform/assert.hpp"

namespace oll {

enum class CombineState : std::uint32_t {
  kEmpty = 0,     // slot idle, owned by its thread
  kPending = 1,   // closure published, waiting for a combiner (or retract)
  kExecuting = 2, // claimed by the current write holder
  kDone = 3,      // executed; result/exception ready for the owner
};

template <typename M>
class CombinePool {
 public:
  struct Slot {
    typename M::template Atomic<std::uint32_t> state{
        static_cast<std::uint32_t>(CombineState::kEmpty)};
    // Grow-only publication-list link; written once per enrollment, before
    // the head CAS publishes it.
    typename M::template Atomic<Slot*> next{nullptr};
    bool enrolled = false;  // owner-thread private
    // Payload: written by the owner before the kPending release store,
    // read by the combiner after its claim CAS acquires.
    std::uint32_t domain = 0;
    void (*fn)(void*) = nullptr;
    void* ctx = nullptr;
    // Written by the combiner before the kDone release store, read by the
    // owner after observing kDone with acquire.
    std::exception_ptr ex{};
  };

  explicit CombinePool(std::uint32_t max_threads) : slots_(max_threads) {}

  // Publish the calling thread's closure; returns the slot to watch.
  Slot& publish(void (*fn)(void*), void* ctx, std::uint32_t domain) {
    Slot& s = slots_.local();
    OLL_DCHECK(s.state.load(std::memory_order_relaxed) ==
               static_cast<std::uint32_t>(CombineState::kEmpty));
    s.domain = domain;
    s.fn = fn;
    s.ctx = ctx;
    s.ex = nullptr;
    s.state.store(static_cast<std::uint32_t>(CombineState::kPending),
                  std::memory_order_release);
    if (!s.enrolled) {
      s.enrolled = true;
      Slot* head = head_.load(std::memory_order_relaxed);
      do {
        s.next.store(head, std::memory_order_relaxed);
      } while (!head_.compare_exchange_weak(head, &s,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
    }
    // Test-and-set: during a burst only the first publisher writes the
    // shared hint line (see the file comment).
    if (dirty_.load(std::memory_order_relaxed) == 0) {
      dirty_.store(1, std::memory_order_release);
    }
    return s;
  }

  // Owner takes its still-unclaimed closure back (to run it itself on a
  // conventional acquire path).  False means a combiner already claimed it
  // — the owner must then wait for kDone and consume().
  bool try_retract(Slot& s) {
    std::uint32_t expect = static_cast<std::uint32_t>(CombineState::kPending);
    // The dirty_ hint is left as-is: a stale set flag costs the next holder
    // one empty walk, which is cheaper than another shared write here.
    return s.state.compare_exchange_strong(
        expect, static_cast<std::uint32_t>(CombineState::kEmpty),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  // Owner reclaims a kDone slot; rethrows the closure's exception, if any,
  // on the owner's thread (the delegation contract).
  void consume(Slot& s) {
    OLL_DCHECK(s.state.load(std::memory_order_relaxed) ==
               static_cast<std::uint32_t>(CombineState::kDone));
    std::exception_ptr ex = std::move(s.ex);
    s.ex = nullptr;
    s.state.store(static_cast<std::uint32_t>(CombineState::kEmpty),
                  std::memory_order_relaxed);
    if (ex) std::rethrow_exception(ex);
  }

  // One shared load; false means a drain would find nothing (approximate —
  // a publish racing the release is caught by the publisher's own retry).
  bool maybe_pending() const {
    return dirty_.load(std::memory_order_acquire) != 0;
  }

  // Holder-side gate for a drain: consume the hint.  MUST be called only
  // while holding the lock exclusively (claims are serialized; publishers
  // may race, see the file comment).  The per-slot claim CAS inside drain()
  // carries the payload synchronization — the flag is purely a hint, so
  // the clear can be relaxed.
  bool claim_pending() {
    if (dirty_.load(std::memory_order_acquire) == 0) return false;
    dirty_.store(0, std::memory_order_relaxed);
    return true;
  }

  // Execute up to `budget` pending closures.  MUST be called only while the
  // caller holds the lock exclusively (see the invariant above).
  //
  // Single claim sweep, not load-then-claim: the walk CASes each slot
  // kPending -> kExecuting directly, so a claimed slot costs the combiner
  // ONE coherence transfer instead of a shared fetch followed by an
  // exclusive upgrade (the drain is the serialized critical path of every
  // combined op — each transfer here is paid once per op by the whole
  // lock).  A failed CAS on an idle slot costs the same one transfer the
  // old pre-check load did, and publishers need the line exclusively to
  // publish anyway, so stealing it claims nothing they kept.
  //
  // Locality (the PR 4 cohort rationale applied to delegation): closures
  // from the holder's own LLC domain execute during the sweep; remote ones
  // are deferred to a local scratch array and run after it, so combined
  // work runs against caches in the holder's domain before crossing the
  // die — without a second walk over all the slot lines.
  std::uint32_t drain(std::uint32_t budget, std::uint32_t my_domain) {
    Slot* deferred[kDeferredCap];
    std::uint32_t n_deferred = 0;
    std::uint32_t claimed = 0;
    for (Slot* s = head_.load(std::memory_order_acquire);
         s != nullptr && claimed < budget;
         s = s->next.load(std::memory_order_acquire)) {
      std::uint32_t expect =
          static_cast<std::uint32_t>(CombineState::kPending);
      if (!s->state.compare_exchange_strong(
              expect, static_cast<std::uint32_t>(CombineState::kExecuting),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        continue;  // idle, retracted, or not yet consumed; move on
      }
      ++claimed;
      if (s->domain != my_domain && n_deferred < kDeferredCap) {
        deferred[n_deferred++] = s;  // cross-domain: run after local work
        continue;
      }
      execute(*s);
    }
    for (std::uint32_t i = 0; i < n_deferred; ++i) execute(*deferred[i]);
    // A budget-capped drain may have left publishes behind; restore the
    // hint so the next release walks again rather than waiting out the
    // leftovers' spin budgets.
    if (claimed == budget) dirty_.store(1, std::memory_order_release);
    return claimed;
  }

 private:
  // Deferral scratch bound: claims past this many cross-domain slots in one
  // drain execute in walk order instead (locality is best-effort, never a
  // correctness property).
  static constexpr std::uint32_t kDeferredCap = 128;

  // Run one claimed closure to kDone (exceptions parked for the owner).
  void execute(Slot& s) {
    try {
      s.fn(s.ctx);
    } catch (...) {
      s.ex = std::current_exception();
    }
    s.state.store(static_cast<std::uint32_t>(CombineState::kDone),
                  std::memory_order_release);
  }

  LazyPerThreadSlots<Slot> slots_;
  typename M::template Atomic<Slot*> head_{nullptr};
  typename M::template Atomic<std::uint32_t> dirty_{0};
};

}  // namespace oll
