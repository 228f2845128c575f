// Central-counter reader-writer lock: the naive single-lockword design
// (reader count + writer bit, CAS for everything, no queue).
//
// This is the degenerate baseline every lock in the paper is measured
// against implicitly — the pure "serializing updates to central data
// structures" pathology of §1, without even the Solaris lock's handoff
// discipline.  Writer-preference is optional (a wantWriter bit gates new
// readers so writers are not starved under read-heavy load).
#pragma once

#include <chrono>
#include <cstdint>

#include "platform/assert.hpp"
#include "platform/backoff.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/park.hpp"
#include "platform/spin.hpp"
#include "platform/trace.hpp"
#include "locks/lock_stats.hpp"
#include "locks/wait_queue.hpp"

namespace oll {

struct CentralRwOptions {
  bool writer_preference = true;
  BackoffParams backoff{};
  // Thread bound for the per-thread stats slots (matches the other locks).
  std::uint32_t max_threads = 512;
  // This lock has no queue, so there is no per-waiter word to park on;
  // kSpinThenPark instead escalates the untimed CAS loops to bounded
  // park_briefly naps once backoff has run a while (predicate-style
  // escalation, DESIGN.md §16.5).  Timed paths keep pure backoff so a
  // deadline is never overshot by a park slice.  kBlocking degrades to
  // kSpin.
  WaitPolicy wait_policy = WaitPolicy::kSpin;
};

template <typename M = RealMemory>
class CentralRwLock {
 public:
  static constexpr std::uint64_t kReaderOne = 1ULL;
  static constexpr std::uint64_t kCountMask = 0xffffffffULL;
  static constexpr std::uint64_t kWriter = 1ULL << 32;
  static constexpr std::uint64_t kWriterWanted = 1ULL << 33;

  explicit CentralRwLock(const CentralRwOptions& opts = {})
      : opts_(opts), stats_(opts.max_threads) {}

  CentralRwLock(const CentralRwLock&) = delete;
  CentralRwLock& operator=(const CentralRwLock&) = delete;

  void lock_shared() {
    const ObsTimer t = obs_begin(TraceEventType::kReadAcquireBegin, this);
    lock_shared_impl();
    const std::uint64_t d = obs_end(TraceEventType::kReadAcquireEnd, this, t);
    if (t.armed) stats_.record_read_acquire(d);
  }

  bool try_lock_shared() {
    std::uint64_t w = word_.load(std::memory_order_acquire);
    while ((w & (kWriter | kWriterWanted)) == 0) {
      if (word_.compare_exchange_strong(w, w + kReaderOne,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void unlock_shared() {
    trace_event(TraceEventType::kReadRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    word_.fetch_sub(kReaderOne, std::memory_order_acq_rel);
  }

  void lock() {
    const ObsTimer t = obs_begin(TraceEventType::kWriteAcquireBegin, this);
    lock_impl();
    const std::uint64_t d = obs_end(TraceEventType::kWriteAcquireEnd, this, t);
    if (t.armed) stats_.record_write_acquire(d);
  }

  bool try_lock() {
    std::uint64_t w = 0;
    return word_.compare_exchange_strong(w, kWriter,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // fetch_and rather than a plain store: a waiting writer's wanted bit must
  // survive our release.
  void unlock() {
    trace_event(TraceEventType::kWriteRelease, this);
    fault_preempt_point(FaultSite::kHolderPreemption);
    word_.fetch_and(~kWriter, std::memory_order_acq_rel);
  }

  // Read -> write iff sole reader with no writer waiting (§3.2.1's "trivial
  // when using a counter" case).
  bool try_upgrade() {
    std::uint64_t expected = kReaderOne;
    return word_.compare_exchange_strong(expected, kWriter,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // Write -> read; preserves a waiting writer's wanted bit.
  void downgrade() {
    std::uint64_t w = word_.load(std::memory_order_acquire);
    while (true) {
      OLL_DCHECK((w & kWriter) != 0);
      const std::uint64_t desired = (w & ~kWriter) + kReaderOne;
      if (word_.compare_exchange_weak(w, desired, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return;
      }
    }
  }

  // --- timed acquisition (SharedTimedMutex requirements) -------------------
  // Deadline-bounded retry over the try paths; this lock has no queue, so a
  // timed-out attempt leaves no state to undo.

  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp) {
    const bool ok = try_until(tp, [&] { return try_lock(); });
    if (!ok) stats_.count_write_timeout();
    return ok;
  }

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_shared_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_shared_until(
      const std::chrono::time_point<Clock, Duration>& tp) {
    const bool ok = try_until(tp, [&] { return try_lock_shared(); });
    if (!ok) stats_.count_read_timeout();
    return ok;
  }

  std::uint64_t lockword() const {
    return word_.load(std::memory_order_acquire);
  }

  // fast = acquired on the first attempt; queued = looped at least once.
  // This lock has no queue or drain interval, so writer_wait stays empty.
  // Exact at quiescence.
  LockStatsSnapshot stats() const { return stats_.snapshot(); }

  // The counters stats() reads, for a wrapping layer that counts fields
  // only it writes (VersionedRwLock's opt_*).
  LockStats& lock_stats() { return stats_; }

 private:
  // Escalation threshold for kSpinThenPark: backoff rounds before the loop
  // starts napping (mirrors SpinWait's yield->park ladder).
  static constexpr std::uint32_t kEscalateRounds = 64;

  bool use_park() const {
    return opts_.wait_policy == WaitPolicy::kSpinThenPark;
  }

  // One contention pause: exponential backoff, escalating to censused
  // park_briefly naps under kSpinThenPark.  `round` counts pauses so the
  // nap length can grow; there is no waker, so the nap must stay bounded.
  void contended_pause(ExponentialBackoff& backoff, std::uint32_t& round) {
    if (use_park() && round >= kEscalateRounds) {
      park_briefly(round - kEscalateRounds);
      ++round;
      return;
    }
    ++round;
    backoff.backoff();
  }

  void lock_shared_impl() {
    ExponentialBackoff backoff(opts_.backoff);
    std::uint32_t round = 0;
    bool contended = false;
    while (true) {
      std::uint64_t w = word_.load(std::memory_order_acquire);
      if ((w & (kWriter | kWriterWanted)) == 0) {
        if (word_.compare_exchange_weak(w, w + kReaderOne,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          if (contended) {
            stats_.count_read_queued();
          } else {
            stats_.count_read_fast();
          }
          return;
        }
        contended = true;
        continue;
      }
      contended = true;
      contended_pause(backoff, round);
    }
  }

  void lock_impl() {
    ExponentialBackoff backoff(opts_.backoff);
    std::uint32_t round = 0;
    bool wanted_set = false;
    bool contended = false;
    while (true) {
      std::uint64_t w = word_.load(std::memory_order_acquire);
      const std::uint64_t self_bits = wanted_set ? kWriterWanted : 0;
      if ((w & ~self_bits) == 0) {
        // Free (modulo our own wanted bit): claim it, clearing the bit.
        if (word_.compare_exchange_weak(w, kWriter,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          if (contended) {
            stats_.count_write_queued();
          } else {
            stats_.count_write_fast();
          }
          return;
        }
        contended = true;
        continue;
      }
      contended = true;
      if (opts_.writer_preference && !wanted_set &&
          (w & kWriterWanted) == 0) {
        // Gate out new readers while we wait.  Only one writer can own the
        // wanted bit at a time; others just spin for the lock to free up.
        if (word_.compare_exchange_strong(w, w | kWriterWanted,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          wanted_set = true;
        }
        continue;
      }
      contended_pause(backoff, round);
    }
  }

  template <typename TimePoint, typename Try>
  bool try_until(const TimePoint& deadline, Try&& attempt) {
    ExponentialBackoff backoff(opts_.backoff);
    while (true) {
      if (attempt()) return true;
      if (TimePoint::clock::now() >= deadline) return false;
      backoff.backoff();
    }
  }

  CentralRwOptions opts_;
  typename M::template Atomic<std::uint64_t> word_{0};
  LockStats stats_;
};

}  // namespace oll
