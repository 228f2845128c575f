// Cache-line geometry and padding helpers.
//
// Every shared word a lock algorithm spins on or CASes must live on its own
// cache line, or the coherence traffic the paper is about to measure gets
// polluted by false sharing.  All lock modules in this repository use the
// helpers below rather than sprinkling alignas() by hand.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace oll {

// Hardware destructive interference size.  We deliberately hard-code 64/128
// rather than using std::hardware_destructive_interference_size, whose value
// is an ABI hazard (it may differ between TUs compiled with different
// tuning flags).  128 covers adjacent-line prefetchers on x86.
inline constexpr std::size_t kCacheLineSize = 64;
inline constexpr std::size_t kFalseSharingRange = 128;

// A T padded out to occupy an integral number of false-sharing ranges and
// aligned to one, so that two adjacent CacheAligned<T> never share a line.
template <typename T>
struct alignas(kFalseSharingRange) CacheAligned {
  T value{};

  CacheAligned() = default;

  template <typename... Args>
  explicit CacheAligned(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(alignof(CacheAligned<char>) == kFalseSharingRange);
static_assert(sizeof(CacheAligned<char>) == kFalseSharingRange);

// Trailing padding that rounds a struct whose hot fields come first up to a
// full false-sharing range.  Usage:
//   struct Node { Hot hot; Pad<sizeof(Hot)> pad_; };
template <std::size_t UsedBytes>
struct Pad {
  static constexpr std::size_t kPadBytes =
      (UsedBytes % kFalseSharingRange == 0)
          ? kFalseSharingRange
          : kFalseSharingRange - (UsedBytes % kFalseSharingRange);
  char pad[kPadBytes];
};

// Member groups reported by the hot-word layout visitors (csnzi.hpp,
// goll_lock.hpp; DESIGN.md §17).  Members of different groups must never
// share a false-sharing range: read-mostly fields are read on every
// operation, the two hot groups are the words RMW'd or stored on the
// acquisition paths, and each hot group has its own range.
enum class LayoutGroup : unsigned char { kReadMostly, kCSnziRoot, kWriterSide };

}  // namespace oll
