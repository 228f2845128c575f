// Shared helpers for the lock test suites: a reader-writer exclusion oracle
// and a generic randomized mixed workload driver.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "platform/rng.hpp"

namespace oll::test {

// Yields until `pred` holds or ~5 s pass; returns pred().  Tests use it to
// hand-shake on observable state instead of counting yields, with the
// deadline turning a lost handshake into a failure instead of a hang.
template <typename Pred>
bool eventually(Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::yield();
  }
  return true;
}

// Tracks how many readers/writers are inside the critical section and
// records any violation of reader-writer exclusion.  Check methods are
// called while holding the lock, so any interleaving that trips them is a
// genuine exclusion bug in the lock under test.
class ExclusionChecker {
 public:
  void reader_enter() {
    readers_.fetch_add(1, std::memory_order_acq_rel);
    if (writers_.load(std::memory_order_acquire) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void reader_exit() { readers_.fetch_sub(1, std::memory_order_acq_rel); }

  void writer_enter() {
    if (writers_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    if (readers_.load(std::memory_order_acquire) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void writer_exit() { writers_.fetch_sub(1, std::memory_order_acq_rel); }

  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

  // Unprotected counter mutated only inside write sections; with correct
  // exclusion its final value equals the number of write sections executed.
  std::uint64_t unprotected_counter = 0;

 private:
  std::atomic<std::int64_t> readers_{0};
  std::atomic<std::int64_t> writers_{0};
  std::atomic<std::uint64_t> violations_{0};
};

// Randomized acquire/release workload over any lock with the shared/exclusive
// interface.  Returns the number of write acquisitions performed.
template <typename Lock>
std::uint64_t run_mixed_workload(Lock& lock, ExclusionChecker& checker,
                                 unsigned threads, unsigned iters_per_thread,
                                 unsigned read_pct, std::uint64_t seed = 7) {
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> writes{0};
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ULL + t);
      std::uint64_t local_writes = 0;
      for (unsigned i = 0; i < iters_per_thread; ++i) {
        if (rng.bernoulli(read_pct, 100)) {
          lock.lock_shared();
          checker.reader_enter();
          checker.reader_exit();
          lock.unlock_shared();
        } else {
          lock.lock();
          checker.writer_enter();
          ++checker.unprotected_counter;
          checker.writer_exit();
          lock.unlock();
          ++local_writes;
        }
      }
      writes.fetch_add(local_writes, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  return writes.load(std::memory_order_relaxed);
}

}  // namespace oll::test
