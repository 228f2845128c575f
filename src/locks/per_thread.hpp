// Per-lock, per-thread local state.
//
// GOLL/FOLL/ROLL keep a small Local record per thread per lock (the paper's
// `Local` in Figures 3 and 4: the C-SNZI ticket, the node departed from, the
// thread's writer node).  We index a cache-aligned array by the dense thread
// id from platform/thread_id.hpp; a lock is constructed for a maximum thread
// count and checks it.
//
// Pay-for-use blocks (DESIGN.md §17.5): state that only some operations
// touch — latency histograms, census marks, metalock queue nodes, the
// combining pool, a stats baseline — lives in a LazyBlock, allocated by its
// first use instead of at construction, so a lock that never takes that
// path never pays for it.  Concurrent first uses race to publish a zeroed
// block with a CAS; the losers free theirs and use the winner's, so exactly
// one block is ever published and nothing written through it is lost.
// Readers load the pointer with acquire (pairing with the CAS's release),
// so they see the block fully zeroed; callers read a null block as "every
// element still zero".  The pointer is a plain std::atomic on purpose: the
// simulator does not charge it, so sim series do not move.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/thread_id.hpp"

namespace oll {

template <typename T>
class PerThreadSlots {
 public:
  explicit PerThreadSlots(std::uint32_t max_threads)
      : slots_(std::make_unique<CacheAligned<T>[]>(max_threads)),
        max_threads_(max_threads) {
    OLL_CHECK(max_threads > 0);
  }

  T& local() {
    const std::uint32_t idx = this_thread_index();
    OLL_CHECK(idx < max_threads_);
    return slots_[idx].value;
  }

  T& slot(std::uint32_t idx) {
    OLL_CHECK(idx < max_threads_);
    return slots_[idx].value;
  }

  const T& slot(std::uint32_t idx) const {
    OLL_CHECK(idx < max_threads_);
    return slots_[idx].value;
  }

  std::uint32_t size() const noexcept { return max_threads_; }

 private:
  std::unique_ptr<CacheAligned<T>[]> slots_;
  std::uint32_t max_threads_;
};

namespace per_thread_internal {
inline std::atomic<std::uint64_t> g_blocks_published{0};
}  // namespace per_thread_internal

// Blocks published by every LazyBlock in the process so far (monotonic; CAS
// losers are not counted).  Lets tests assert which paths allocate.
inline std::uint64_t lazy_blocks_published() {
  return per_thread_internal::g_blocks_published.load(
      std::memory_order_relaxed);
}

// n value-initialised Ts, allocated and published by the first
// get_or_publish() (see the file comment).
template <typename T>
class LazyBlock {
 public:
  explicit LazyBlock(std::uint32_t n) : size_(n) {}
  ~LazyBlock() { delete[] block_.load(std::memory_order_acquire); }

  LazyBlock(const LazyBlock&) = delete;
  LazyBlock& operator=(const LazyBlock&) = delete;

  // The published block, or null before the first get_or_publish().
  T* get() const { return block_.load(std::memory_order_acquire); }

  T* get_or_publish() {
    T* b = get();
    if (b == nullptr) [[unlikely]] b = publish();
    return b;
  }

  std::uint32_t size() const noexcept { return size_; }

 private:
  // Cold half of get_or_publish(): allocate a zeroed block and race to
  // publish it.  release on success publishes the zeroed contents to every
  // acquire load in get(); acquire on failure makes the winner's block ours.
  [[gnu::cold, gnu::noinline]] T* publish() {
    T* fresh = new T[size_]();
    T* expected = nullptr;
    if (block_.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      per_thread_internal::g_blocks_published.fetch_add(
          1, std::memory_order_relaxed);
      return fresh;
    }
    delete[] fresh;  // another thread won the publication race
    return expected;
  }

  std::atomic<T*> block_{nullptr};
  std::uint32_t size_;
};

// PerThreadSlots whose cache-aligned array is a LazyBlock: published by the
// first local()/at(), read as absent (null) before that.
template <typename T>
class LazyPerThreadSlots {
 public:
  explicit LazyPerThreadSlots(std::uint32_t max_threads)
      : block_(max_threads) {
    OLL_CHECK(max_threads > 0);
  }

  // The calling thread's slot, publishing the block on first use.
  T& local() { return at(this_thread_index()); }

  T& at(std::uint32_t idx) {
    OLL_CHECK(idx < block_.size());
    return block_.get_or_publish()[idx].value;
  }

  // Slot idx, or null while no block is published.  Never publishes.
  T* find(std::uint32_t idx) const {
    OLL_CHECK(idx < block_.size());
    CacheAligned<T>* b = block_.get();
    return b != nullptr ? &b[idx].value : nullptr;
  }

  std::uint32_t size() const noexcept { return block_.size(); }

 private:
  LazyBlock<CacheAligned<T>> block_;
};

}  // namespace oll
