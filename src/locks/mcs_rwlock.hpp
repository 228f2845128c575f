// MCS fair reader-writer lock (Mellor-Crummey & Scott, PPoPP'91) — the
// queue-based RW lock whose limitations motivate §1 of the paper: waiting
// threads spin locally and a reader is admitted when its predecessor is an
// active reader, but *every* thread still FASes the central tail pointer and
// every reader increments/decrements a central reader count on both acquire
// and release, so it does not scale under heavy read contention.
//
// This is the classic algorithm with the (blocked, successor_class) pair
// packed into one CAS-able word per node, plus the central reader_count and
// next_writer fields.
#pragma once

#include <chrono>
#include <cstdint>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/memory.hpp"
#include "platform/spin.hpp"
#include "locks/per_thread.hpp"
#include "locks/timed.hpp"

namespace oll {

struct McsRwOptions {
  std::uint32_t max_threads = 512;
};

template <typename M = RealMemory>
class McsRwLock {
 public:
  explicit McsRwLock(const McsRwOptions& opts = {}) : locals_(opts.max_threads) {}

  McsRwLock(const McsRwLock&) = delete;
  McsRwLock& operator=(const McsRwLock&) = delete;

  void lock_shared() { start_read(locals_.local().node); }
  void unlock_shared() { end_read(locals_.local().node); }
  void lock() { start_write(locals_.local().node); }
  void unlock() { end_write(locals_.local().node); }

  // --- non-blocking / timed acquisition (DESIGN.md §11) -------------------
  // Conservative empty-queue CAS, like every MCS-family lock here.  The
  // writer try additionally has to respect the release ordering of
  // end_read: a reader retreats the tail BEFORE decrementing reader_count_,
  // so a post-CAS reader_count_ != 0 can only be a release in flight — a
  // bounded wait, not a lock tenure (the pre-CAS count check rejects the
  // common held-for-reading case without touching the tail).

  bool try_lock() {
    if (reader_count_.load(std::memory_order_acquire) != 0) return false;
    QNode& I = locals_.local().node;
    I.cls = kWriter;
    I.next.store(nullptr, std::memory_order_relaxed);
    I.state.store(kBlocked | kSuccNone, std::memory_order_relaxed);
    QNode* expected = nullptr;
    if (!tail_.compare_exchange_strong(expected, &I,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;
    }
    // Mirror start_write's empty-queue arm; the registration dance settles
    // any race with a departing last reader.
    next_writer_.store(&I, std::memory_order_seq_cst);  // Dekker S_writer
    if (reader_count_.load(std::memory_order_seq_cst) == 0) {  // L_count
      QNode* w = next_writer_.exchange(nullptr, std::memory_order_acq_rel);
      if (w == &I) {
        I.state.fetch_and(~kBlocked, std::memory_order_acq_rel);
      } else if (w != nullptr) {
        next_writer_.store(w, std::memory_order_release);
      }
    }
    spin_until([&] {
      return (I.state.load(std::memory_order_acquire) & kBlocked) == 0;
    });
    return true;
  }

  bool try_lock_shared() {
    QNode& I = locals_.local().node;
    I.cls = kReader;
    I.next.store(nullptr, std::memory_order_relaxed);
    I.state.store(kBlocked | kSuccNone, std::memory_order_relaxed);
    QNode* expected = nullptr;
    if (!tail_.compare_exchange_strong(expected, &I,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;
    }
    reader_count_.fetch_add(1, std::memory_order_acq_rel);
    I.state.fetch_and(~kBlocked, std::memory_order_acq_rel);
    // A reader that queued behind us before we cleared kBlocked registered
    // as our successor and is spinning; chain-unblock it as start_read does.
    if ((I.state.load(std::memory_order_acquire) & kSuccMask) ==
        kSuccReader) {
      QNode* succ = nullptr;
      spin_until([&] {
        succ = I.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
      reader_count_.fetch_add(1, std::memory_order_acq_rel);
      succ->state.fetch_and(~kBlocked, std::memory_order_acq_rel);
    }
    return true;
  }

  template <typename Clock, typename Duration>
  bool try_lock_until(const std::chrono::time_point<Clock, Duration>& tp) {
    return deadline_retry(to_steady_deadline(tp), [&] { return try_lock(); });
  }

  template <typename Rep, typename Period>
  bool try_lock_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_until(std::chrono::steady_clock::now() + d);
  }

  template <typename Clock, typename Duration>
  bool try_lock_shared_until(
      const std::chrono::time_point<Clock, Duration>& tp) {
    return deadline_retry(to_steady_deadline(tp),
                          [&] { return try_lock_shared(); });
  }

  template <typename Rep, typename Period>
  bool try_lock_shared_for(const std::chrono::duration<Rep, Period>& d) {
    return try_lock_shared_until(std::chrono::steady_clock::now() + d);
  }

 private:
  enum Class : std::uint32_t { kReader = 0, kWriter = 1 };

  // state word: bit 0 = blocked, bits [1,3) = successor class
  static constexpr std::uint32_t kBlocked = 1u;
  static constexpr std::uint32_t kSuccNone = 0u << 1;
  static constexpr std::uint32_t kSuccReader = 1u << 1;
  static constexpr std::uint32_t kSuccWriter = 2u << 1;
  static constexpr std::uint32_t kSuccMask = 3u << 1;

  struct alignas(kFalseSharingRange) QNode {
    typename M::template Atomic<QNode*> next{nullptr};
    typename M::template Atomic<std::uint32_t> state{0};
    Class cls = kReader;
  };

  struct Local {
    QNode node;
  };

  void start_read(QNode& I) {
    I.cls = kReader;
    I.next.store(nullptr, std::memory_order_relaxed);
    I.state.store(kBlocked | kSuccNone, std::memory_order_relaxed);
    QNode* pred = tail_.exchange(&I, std::memory_order_acq_rel);
    if (pred == nullptr) {
      reader_count_.fetch_add(1, std::memory_order_acq_rel);
      I.state.fetch_and(~kBlocked, std::memory_order_acq_rel);
    } else {
      std::uint32_t expect = kBlocked | kSuccNone;
      if (pred->cls == kWriter ||
          pred->state.compare_exchange_strong(expect, kBlocked | kSuccReader,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        // Predecessor is a writer, or a blocked reader with no successor
        // registered yet: it will unblock us in turn.
        pred->next.store(&I, std::memory_order_release);
        spin_until([&] {
          return (I.state.load(std::memory_order_acquire) & kBlocked) == 0;
        });
      } else {
        // Predecessor is an active (or soon-active) reader.
        reader_count_.fetch_add(1, std::memory_order_acq_rel);
        pred->next.store(&I, std::memory_order_release);
        I.state.fetch_and(~kBlocked, std::memory_order_acq_rel);
      }
    }
    // Chain-unblock a reader that queued behind us while we were blocked.
    if ((I.state.load(std::memory_order_acquire) & kSuccMask) == kSuccReader) {
      QNode* succ = nullptr;
      spin_until([&] {
        succ = I.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
      reader_count_.fetch_add(1, std::memory_order_acq_rel);
      succ->state.fetch_and(~kBlocked, std::memory_order_acq_rel);
    }
  }

  void end_read(QNode& I) {
    QNode* succ = I.next.load(std::memory_order_acquire);
    if (succ != nullptr || !cas_tail_to_null(&I)) {
      spin_until([&] {
        succ = I.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
      if ((I.state.load(std::memory_order_acquire) & kSuccMask) ==
          kSuccWriter) {
        next_writer_.store(succ, std::memory_order_release);
      }
    }
    // seq_cst: Dekker S_count / L_writer.  A writer that found the queue
    // empty registers in next_writer_ and then reads reader_count_; the
    // last reader out decrements and then takes next_writer_.  If both
    // sides could read the other's old value (the writer's store still
    // buffered while it reads our count), the writer would see a reader
    // and the reader no writer: nobody unblocks the writer.  The total
    // order forbids that outcome.
    if (reader_count_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Last reader out unblocks the next writer, if one registered.
      QNode* w = next_writer_.exchange(nullptr, std::memory_order_seq_cst);
      if (w != nullptr) {
        w->state.fetch_and(~kBlocked, std::memory_order_acq_rel);
      }
    }
  }

  void start_write(QNode& I) {
    I.cls = kWriter;
    I.next.store(nullptr, std::memory_order_relaxed);
    I.state.store(kBlocked | kSuccNone, std::memory_order_relaxed);
    QNode* pred = tail_.exchange(&I, std::memory_order_acq_rel);
    if (pred == nullptr) {
      // seq_cst: Dekker S_writer / L_count, pairs with end_read (see there).
      next_writer_.store(&I, std::memory_order_seq_cst);
      if (reader_count_.load(std::memory_order_seq_cst) == 0) {
        QNode* w = next_writer_.exchange(nullptr, std::memory_order_acq_rel);
        if (w == &I) {
          I.state.fetch_and(~kBlocked, std::memory_order_acq_rel);
        } else if (w != nullptr) {
          // We raced with a departing last reader who grabbed a different
          // registration; restore it.  (Unreachable in this algorithm: only
          // this writer can be registered here.  Guard anyway.)
          next_writer_.store(w, std::memory_order_release);
        }
      }
    } else {
      std::uint32_t s = pred->state.load(std::memory_order_acquire);
      while (!pred->state.compare_exchange_weak(
          s, (s & kBlocked) | kSuccWriter, std::memory_order_acq_rel,
          std::memory_order_acquire)) {
      }
      pred->next.store(&I, std::memory_order_release);
    }
    spin_until([&] {
      return (I.state.load(std::memory_order_acquire) & kBlocked) == 0;
    });
  }

  void end_write(QNode& I) {
    QNode* succ = I.next.load(std::memory_order_acquire);
    if (succ != nullptr || !cas_tail_to_null(&I)) {
      spin_until([&] {
        succ = I.next.load(std::memory_order_acquire);
        return succ != nullptr;
      });
      if (succ->cls == kReader) {
        reader_count_.fetch_add(1, std::memory_order_acq_rel);
      }
      succ->state.fetch_and(~kBlocked, std::memory_order_acq_rel);
    }
  }

  bool cas_tail_to_null(QNode* expected_tail) {
    QNode* expected = expected_tail;
    return tail_.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  typename M::template Atomic<QNode*> tail_{nullptr};
  char pad0_[kFalseSharingRange - sizeof(void*)];
  typename M::template Atomic<std::uint32_t> reader_count_{0};
  char pad1_[kFalseSharingRange - sizeof(std::uint32_t)];
  typename M::template Atomic<QNode*> next_writer_{nullptr};
  char pad2_[kFalseSharingRange - sizeof(void*)];
  PerThreadSlots<Local> locals_;
};

}  // namespace oll
