// VersionedRwLock<Lock> — a seqlock-style optimistic read mode as a
// composable lock transformer (DESIGN.md §13; the optiql-style optimistic
// lock coupling exemplars in SNIPPETS.md are the closest published shape).
//
// BRAVO (locks/bravo.hpp) got uncontended readers down to one CAS on a
// quasi-private visible-readers slot; this layer removes the last store.
// The wrapper keeps a single version word stamped by writers: odd while a
// writer is inside the critical section, even (and advanced by 2) after it
// leaves.  An optimistic reader samples the word (opt_read_begin), runs its
// read without acquiring anything — zero shared-cache-line stores, zero
// RMWs, just two loads of the version line — and then validates
// (opt_read_validate): the read is consistent iff the stamp was even and is
// unchanged.  A failed validation means a writer overlapped; the reader
// discards everything it read and retries, falling back to the pessimistic
// lock_shared() path after a bounded number of attempts.
//
// Because an optimistic reader holds nothing, it can observe *torn* state
// mid-copy; the safety contract is therefore OCC's, not a lock's:
//
//   * readers may only copy data out (no pointer chasing through freed
//     memory, no derived-value side effects) until validate() says the copy
//     is consistent — see RwProtected::read_optimistic for the packaged
//     discipline;
//   * concurrently-written payload words must be accessed with atomics
//     (relaxed is enough — the version protocol carries the ordering) so
//     the racing loads are defined behavior under the C++ memory model.
//
// Memory-ordering map (DESIGN.md §12/§13; litmus-tested MP shape in
// tests/litmus_test.cpp):
//
//   writer enter:  version.store(v+1, relaxed); fence(release)
//       The release *fence* — not a release store — is what orders the odd
//       stamp before the critical section's subsequent data stores: a
//       release store orders prior accesses, which is the wrong direction
//       here.  Paired with the reader's acquire fence in validate, it
//       guarantees a reader that observed any of this writer's data writes
//       re-reads the version as odd-or-later and fails validation.
//   writer exit:   version.store(v+2, release)
//       Orders the critical section's data stores before the even stamp, so
//       a reader whose begin (acquire) load returns this value sees all of
//       that version's data.
//   reader begin:  version.load(acquire)  — pairs with writer exit.
//   reader validate: fence(acquire); version.load(relaxed)
//       The fence (pairing with writer enter's release fence through the
//       data reads) must come *after* the data reads, which an acquire load
//       of the version could not guarantee; the reload itself then only
//       needs the value.
//
// The odd/even bit doubles as the writer-presence check: where BRAVO needs
// a seq_cst Dekker (publish/re-check vs. clear/scan) because an invisible
// reader would break *exclusion*, here a racing writer only needs to break
// *validation* — and the stamp comparison does that without any seq_cst.
//
// Writers pay two version-line stores per exclusive section on top of the
// underlying lock; pessimistic readers pay nothing new.
//
// The layer keeps no per-lock state besides the version word (DESIGN.md
// §13): its opt_* counters and opt_read histogram are fields no other layer
// writes, so they are counted into the wrapped lock's own LockStats
// (lock_stats()), and stats() is the wrapped lock's.  The begin-to-validate
// timer lives in a small thread_local table of open windows that only an
// enabled observer (tracing or latency timing) touches.  With observation
// off, an optimistic read reads the version line twice and bumps one
// counter in the calling thread's private stats slot.  try_upgrade /
// downgrade are deliberately not forwarded: an upgrade would enter the
// writer role without passing through writer_enter()'s stamp.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <utility>

#include "core/rwlock_concepts.hpp"
#include "locks/lock_stats.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/trace.hpp"

namespace oll {

struct VersionedOptions {
  // Optimistic attempts before read_optimistic falls back to the
  // pessimistic shared path.  Small: under write bursts the version word
  // keeps moving and retrying only re-reads a line that keeps invalidating;
  // the underlying lock's reader path is the right tool there.
  std::uint32_t max_opt_retries = 8;
};

namespace versioned_internal {

// The calling thread's open optimistic windows whose begin armed a latency
// timer, keyed by lock.  A thread may hold a few windows at once (hand-
// over-hand coupling holds two); a window abandoned without a validate is
// overwritten by the next begin on the same lock, or by round robin once
// every entry is taken.  constinit: no dynamic TLS initializer, so access
// is a plain TLS load.
struct OpenWindow {
  const void* lock;
  std::uint64_t begin;
};
inline constexpr std::uint32_t kOpenWindows = 8;
struct OpenWindows {
  OpenWindow w[kOpenWindows];
  std::uint32_t next;
};
inline constinit thread_local OpenWindows t_open_windows{};

inline void open_window(const void* lock, std::uint64_t begin) {
  OpenWindows& t = t_open_windows;
  OpenWindow* free_entry = nullptr;
  for (OpenWindow& w : t.w) {
    if (w.lock == lock) {
      w.begin = begin;
      return;
    }
    if (w.lock == nullptr && free_entry == nullptr) free_entry = &w;
  }
  if (free_entry == nullptr) free_entry = &t.w[t.next++ % kOpenWindows];
  *free_entry = {lock, begin};
}

// The timer `lock`'s open window started, removing the window; an unarmed
// timer when there is none.  Armed only while timing is still on, so an
// entry left by a window abandoned before timing was switched off is
// dropped here without a sample.
inline ObsTimer close_window(const void* lock) {
  for (OpenWindow& w : t_open_windows.w) {
    if (w.lock == lock) {
      w.lock = nullptr;
      return {w.begin, latency_timing_enabled()};
    }
  }
  return {};
}

}  // namespace versioned_internal

template <typename LockT, typename M = RealMemory>
class VersionedRwLock {
 public:
  using Underlying = LockT;

  template <typename... Args>
  explicit VersionedRwLock(const VersionedOptions& opts, Args&&... args)
      : opts_(opts), lock_(std::forward<Args>(args)...) {}

  VersionedRwLock() : VersionedRwLock(VersionedOptions{}) {}

  VersionedRwLock(const VersionedRwLock&) = delete;
  VersionedRwLock& operator=(const VersionedRwLock&) = delete;

  // --- optimistic read protocol -------------------------------------------

  // Sample the version stamp that opens an optimistic read section.
  // Returns kInvalidOptStamp (and counts a validation failure) when a
  // writer is inside the lock — the attempt must not start, because the
  // data is actively mutating and could not possibly validate.
  std::uint64_t opt_read_begin() {
    const ObsTimer t = obs_begin(TraceEventType::kOptReadBegin, this);
    // acquire: pairs with writer_exit()'s release store — data reads after
    // this load observe everything the stamped version's writer published.
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    // Widen the begin/validate window under fault injection so the fuzzer
    // can land a writer inside it.
    fault_perturb(FaultSite::kSpinWait);
    if ((v & 1) != 0) {
      finish_opt(false);
      return kInvalidOptStamp;
    }
    if (t.armed) versioned_internal::open_window(this, t.begin);
    return v;
  }

  // Close an optimistic read section.  True iff every read between begin
  // and here belongs to the single consistent version `stamp` — never
  // spuriously true.  False may be spurious (a forced fault-injection
  // failure exercises the retry path exactly like a racing writer).
  bool opt_read_validate(std::uint64_t stamp) {
    if (stamp == kInvalidOptStamp) return false;  // begin already counted it
    // acquire fence: pairs with writer_enter()'s release fence through the
    // section's data reads — if any of them observed a writer's store, the
    // fence pair orders that writer's odd stamp before the reload below,
    // so the comparison fails.  A fence rather than an acquire load: the
    // reload must be ordered after the *data reads*, and an acquire load
    // only orders what follows it.
    std::atomic_thread_fence(std::memory_order_acquire);
    // relaxed: the fence supplies the ordering; only the value matters.
    bool ok = version_.load(std::memory_order_relaxed) == stamp;
    if (ok && fault_cas_fail(FaultSite::kCasRetry)) ok = false;
    finish_opt(ok);
    return ok;
  }

  std::uint32_t opt_max_retries() const { return opts_.max_opt_retries; }

  // Called by the retry harness (RwProtected::read_optimistic, the bench's
  // traversal loop) when it gives up on optimism and takes lock_shared().
  void count_opt_fallback() {
    trace_event(TraceEventType::kOptFallback, this);
    lock_.lock_stats().count_opt_fallback();
  }

  // --- pessimistic surface: forwarded, writers stamp the version ----------

  void lock() {
    lock_.lock();
    writer_enter();
    // A writer preempted here holds an odd stamp: every optimistic reader
    // must fail until it resumes — the window the fuzz oracle checks.
    fault_preempt_point(FaultSite::kHolderPreemption);
  }

  void unlock() {
    writer_exit();
    lock_.unlock();
  }

  void lock_shared() { lock_.lock_shared(); }
  void unlock_shared() { lock_.unlock_shared(); }

  bool try_lock()
    requires requires(LockT& l) {
      { l.try_lock() } -> std::convertible_to<bool>;
    }
  {
    if (!lock_.try_lock()) return false;
    writer_enter();
    return true;
  }

  bool try_lock_shared()
    requires requires(LockT& l) {
      { l.try_lock_shared() } -> std::convertible_to<bool>;
    }
  {
    return lock_.try_lock_shared();
  }

  // Timed acquisition (DESIGN.md §11) delegates wholesale: the underlying
  // lock owns the waiting/abandon protocol; this layer only stamps the
  // version once the grant is real.
  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d)
    requires requires(LockT& l) {
      { l.try_lock_for(d) } -> std::convertible_to<bool>;
    }
  {
    if (!lock_.try_lock_for(d)) return false;
    writer_enter();
    return true;
  }

  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp)
    requires requires(LockT& l) {
      { l.try_lock_until(tp) } -> std::convertible_to<bool>;
    }
  {
    if (!lock_.try_lock_until(tp)) return false;
    writer_enter();
    return true;
  }

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d)
    requires requires(LockT& l) {
      { l.try_lock_shared_for(d) } -> std::convertible_to<bool>;
    }
  {
    return lock_.try_lock_shared_for(d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_shared_until(
      const std::chrono::time_point<Clock, Duration>& tp)
    requires requires(LockT& l) {
      { l.try_lock_shared_until(tp) } -> std::convertible_to<bool>;
    }
  {
    return lock_.try_lock_shared_until(tp);
  }

  // --- introspection ------------------------------------------------------

  // The underlying lock's snapshot, which also carries this layer's opt_*
  // counters and opt_read histogram.  Exact at quiescence.
  LockStatsSnapshot stats() const { return lock_.stats(); }

  Underlying& underlying() { return lock_; }
  const Underlying& underlying() const { return lock_; }

 private:
  // Stamp odd on the way into the writer role.  Only writers store the
  // version and the underlying lock serializes them, so the load cannot
  // race another bump — relaxed, the previous writer's even store reaches
  // us through the underlying lock's release/acquire edge.  See the header
  // comment for the store/fence pair.
  void writer_enter() {
    const std::uint64_t v = version_.load(std::memory_order_relaxed);
    version_.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }

  // Advance to the next even stamp on the way out; release orders the
  // critical section's data stores before it (header comment).
  void writer_exit() {
    const std::uint64_t v = version_.load(std::memory_order_relaxed);
    version_.store(v + 1, std::memory_order_release);
  }

  // End the calling thread's window on this lock.  Its begin timer, if
  // one was armed, is in the open-window table; a dead-on-arrival begin
  // opened none (and records no sample either way).
  void finish_opt(bool ok) {
    ObsTimer t{};
    std::uint64_t d = 0;
    if (observation_enabled()) [[unlikely]] {
      t = versioned_internal::close_window(this);
      d = obs_end(TraceEventType::kOptReadEnd, this, t);
    }
    LockStats& stats = lock_.lock_stats();
    if (ok) {
      stats.count_opt_read();
      if (t.armed) stats.record_opt_read(d);
    } else {
      trace_event(TraceEventType::kOptValidationFail, this);
      stats.count_opt_validation_failure();
    }
  }

  VersionedOptions opts_;
  LockT lock_;
  // On M's atomics so fuzz builds perturb it and sim builds charge its
  // coherence traffic — the two loads per optimistic read are exactly what
  // the zero-shared-store evidence test counts.
  typename M::template Atomic<std::uint64_t> version_{0};
};

}  // namespace oll
