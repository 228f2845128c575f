// Parking substrate implementation (see park.hpp / DESIGN.md §16).
//
// Two backends share the slice loop in park():
//   * futex (Linux, OLL_PARK_FUTEX=1, the default): FUTEX_WAIT_PRIVATE
//     compares *word == expected inside the kernel, atomically with
//     respect to FUTEX_WAKE — the sleep/wake race is closed by the kernel.
//   * hashed mutex+condvar buckets (everywhere else, and OLL_PARK_FUTEX=0):
//     the parker re-checks the word under the bucket mutex before waiting,
//     and unpark takes the same mutex before notifying, which restores the
//     same no-lost-wake guarantee.  Hash collisions surface as spurious
//     wakes (counted, re-parked) — correct by the kSpurious contract.
#include "platform/park.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "platform/cache_line.hpp"
#include "platform/cpu.hpp"
#include "platform/fault.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"

#ifndef OLL_PARK_FUTEX
#define OLL_PARK_FUTEX 1
#endif

#if OLL_PARK_FUTEX && defined(__linux__)
#define OLL_PARK_USE_FUTEX 1
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#define OLL_PARK_USE_FUTEX 0
#endif

namespace oll {

namespace {

std::atomic<std::uint64_t> g_parks{0};
std::atomic<std::uint64_t> g_unparks{0};
std::atomic<std::uint64_t> g_spurious{0};
std::atomic<std::uint64_t> g_rearm{0};
std::atomic<std::uint64_t> g_inj_spurious{0};
std::atomic<std::uint64_t> g_inj_lost{0};
std::atomic<std::uint64_t> g_inj_delays{0};

// Currently-parked gauge (telemetry + the fuzzer's end-of-run
// zero-lost-wake invariant: nobody may still be parked at quiescence).
std::atomic<std::uint32_t> g_parked_now{0};

// Per-dense-index census slots; single writer (the owning thread),
// relaxed stores, read by the watchdog's monitor thread.
struct Slot {
  std::atomic<std::uint64_t> since{0};     // 0 = not parked
  std::atomic<std::uint64_t> deadline{0};  // 0 = no deadline
  std::atomic<std::uint64_t> cum{0};
};

CacheAligned<Slot> g_slots[kMaxThreads];

// Adaptive spin controller: EWMA (fixed point, <<3) of spins-to-grant
// observed during spin phases.  Grants that arrive via park decay it, so
// oversubscribed hosts converge to near-immediate parking.
std::atomic<std::uint32_t> g_spin_ewma{256u << 3};

inline void stall(std::uint32_t spins) {
  for (std::uint32_t i = 0; i < spins; ++i) cpu_relax();
}

inline void sleep_ns(std::uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// RAII park census: gauge + per-thread slot, bracketing any real sleep.
class ParkScope {
 public:
  explicit ParkScope(std::uint64_t deadline_ns) : t0_(now_ns()) {
    const std::uint32_t idx = this_thread_index();
    slot_ = idx < kMaxThreads ? &g_slots[idx].value : nullptr;
    if (slot_ != nullptr) {
      slot_->deadline.store(deadline_ns, std::memory_order_relaxed);
      slot_->since.store(t0_, std::memory_order_relaxed);
    }
    g_parked_now.fetch_add(1, std::memory_order_relaxed);
  }
  ~ParkScope() {
    g_parked_now.fetch_sub(1, std::memory_order_relaxed);
    const std::uint64_t dt = now_ns() - t0_;
    if (slot_ != nullptr) {
      slot_->cum.store(slot_->cum.load(std::memory_order_relaxed) + dt,
                       std::memory_order_relaxed);
      slot_->since.store(0, std::memory_order_relaxed);
      slot_->deadline.store(0, std::memory_order_relaxed);
    }
  }
  ParkScope(const ParkScope&) = delete;
  ParkScope& operator=(const ParkScope&) = delete;

 private:
  std::uint64_t t0_;
  Slot* slot_;
};

enum class WaitRc { kWake, kSliceTimeout, kValueChanged };

#if OLL_PARK_USE_FUTEX

WaitRc low_level_wait(const std::atomic<std::uint32_t>& word,
                      std::uint32_t expected, std::uint64_t timeout_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  // The futex word is the atomic's storage; std::atomic<uint32_t> is
  // lock-free and layout-compatible here (static_asserted below).  The
  // kernel only compares and sleeps — no store through the pointer.
  const long rc = syscall(
      SYS_futex,
      reinterpret_cast<const void*>(std::addressof(word)),
      FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
  if (rc == 0) return WaitRc::kWake;
  if (errno == ETIMEDOUT) return WaitRc::kSliceTimeout;
  if (errno == EAGAIN) return WaitRc::kValueChanged;
  return WaitRc::kWake;  // EINTR and friends: treat as a (spurious) wake
}

void low_level_wake(const std::atomic<std::uint32_t>& word, int n) {
  syscall(SYS_futex, reinterpret_cast<const void*>(std::addressof(word)),
          FUTEX_WAKE_PRIVATE, n, nullptr, nullptr, 0);
}

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "futex backend needs a bare-word atomic layout");

#else  // portable fallback: hashed mutex+condvar buckets

struct Bucket {
  std::mutex m;
  std::condition_variable cv;
};

constexpr std::size_t kBucketCount = 257;  // prime, ~16KB of buckets
Bucket g_buckets[kBucketCount];

inline Bucket& bucket_for(const void* p) {
  auto u = reinterpret_cast<std::uintptr_t>(p);
  u ^= u >> 21;
  u *= 0x9e3779b97f4a7c15ull;
  u ^= u >> 33;
  return g_buckets[u % kBucketCount];
}

WaitRc low_level_wait(const std::atomic<std::uint32_t>& word,
                      std::uint32_t expected, std::uint64_t timeout_ns) {
  Bucket& b = bucket_for(std::addressof(word));
  std::unique_lock<std::mutex> g(b.m);
  // Re-check under the bucket mutex: a granter stores the word *before*
  // unpark, and unpark takes this mutex before notifying, so a grant
  // published before we got here is visible now and one published after
  // will find us inside cv.wait — no lost wake.
  if (word.load(std::memory_order_acquire) != expected) {
    return WaitRc::kValueChanged;
  }
  const auto st =
      b.cv.wait_for(g, std::chrono::nanoseconds(timeout_ns));
  return st == std::cv_status::timeout ? WaitRc::kSliceTimeout
                                       : WaitRc::kWake;
}

void low_level_wake(const std::atomic<std::uint32_t>& word, int /*n*/) {
  Bucket& b = bucket_for(std::addressof(word));
  // Empty critical section on purpose: serializes against a parker that
  // has checked the word but not yet entered cv.wait.  notify_all even
  // for unpark_one — waiters multiplex on hashed buckets, and each one
  // re-checks its own word (extra wakeups surface as kSpurious).
  { std::lock_guard<std::mutex> g(b.m); }
  b.cv.notify_all();
}

#endif  // OLL_PARK_USE_FUTEX

}  // namespace

ParkResult park(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::uint64_t deadline_ns) {
  if (word.load(std::memory_order_acquire) != expected) {
    return ParkResult::kWoken;
  }
  if (fault_park_spurious()) {
    g_inj_spurious.fetch_add(1, std::memory_order_relaxed);
    g_spurious.fetch_add(1, std::memory_order_relaxed);
    return ParkResult::kSpurious;
  }
  bool deaf = fault_park_lost();
  if (deaf) g_inj_lost.fetch_add(1, std::memory_order_relaxed);

  ParkResult r = ParkResult::kSpurious;
  bool slept = false;
  {
    ParkScope scope(deadline_ns);
    for (;;) {
      const std::uint64_t now = now_ns();
      if (word.load(std::memory_order_acquire) != expected) {
        // Grant discovered at a slice boundary (or before the first
        // sleep).  If we slept to get here, the wake that should have
        // delivered it was lost/missed — the rearm recovered it.
        if (slept) g_rearm.fetch_add(1, std::memory_order_relaxed);
        r = ParkResult::kWoken;
        break;
      }
      if (deadline_ns != 0 && now >= deadline_ns) {
        r = ParkResult::kTimedOut;
        break;
      }
      std::uint64_t slice_end = now + kParkSliceNs;
      if (deadline_ns != 0 && deadline_ns < slice_end) {
        slice_end = deadline_ns;
      }
      if (deaf) {
        // Injected lost wake: sleep without listening for one slice; any
        // real unpark in this window is dropped.  The loop re-check above
        // is the bounded-latency recovery the profile exists to prove.
        sleep_ns(slice_end - now);
        deaf = false;
        slept = true;
        continue;
      }
      const WaitRc rc = low_level_wait(word, expected, slice_end - now);
      if (rc == WaitRc::kValueChanged) {
        r = ParkResult::kWoken;
        break;
      }
      slept = true;
      if (rc == WaitRc::kWake &&
          word.load(std::memory_order_acquire) == expected) {
        // A delivered wake with no grant behind it: report it so the
        // caller's re-check loop (not this slice loop) absorbs it.
        g_spurious.fetch_add(1, std::memory_order_relaxed);
        r = ParkResult::kSpurious;
        break;
      }
      // kWake with the word changed resolves at the top of the loop as
      // kWoken (without charging a rearm — reset the slept marker for the
      // classification only when the wake carried the grant).
      if (rc == WaitRc::kWake) slept = false;
    }
    if (slept || r != ParkResult::kSpurious) {
      g_parks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (r == ParkResult::kWoken) {
    const std::uint32_t d = fault_park_delay();
    if (d != 0) {
      g_inj_delays.fetch_add(1, std::memory_order_relaxed);
      stall(d);
    }
  }
  return r;
}

void unpark_one(const std::atomic<std::uint32_t>& word) {
  g_unparks.fetch_add(1, std::memory_order_relaxed);
  low_level_wake(word, 1);
}

void unpark_all(const std::atomic<std::uint32_t>& word) {
  g_unparks.fetch_add(1, std::memory_order_relaxed);
  low_level_wake(word, 0x7fffffff);
}

// --- packaged protocol ------------------------------------------------------

namespace {

// Shared core of park_wait_u32 / park_wait_until_u32.
bool park_wait_core(std::atomic<std::uint32_t>& word, std::uint32_t wait_val,
                    std::uint32_t parked_val, std::uint64_t deadline_ns,
                    std::uint32_t* terminal, ParkWaitOutcome* o) {
  // Adaptive spin phase.
  const std::uint32_t budget = park_spin_budget();
  std::uint32_t v = word.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < budget; ++i) {
    if (v != wait_val && v != parked_val) {
      park_note_spin_grant(i);
      if (terminal != nullptr) *terminal = v;
      return true;
    }
    cpu_relax();
    fault_perturb(FaultSite::kSpinWait);
    v = word.load(std::memory_order_acquire);
  }
  // Park phase.  The parked marker is sticky: once published it stays
  // until the granter's exchange displaces it (see park.hpp).
  bool parked_once = false;
  for (;;) {
    v = word.load(std::memory_order_acquire);
    if (v != wait_val && v != parked_val) {
      if (parked_once) {
        park_note_park_grant();
      } else {
        park_note_spin_grant(budget);
      }
      if (terminal != nullptr) *terminal = v;
      return true;
    }
    if (v == wait_val) {
      if (!word.compare_exchange_weak(v, parked_val,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        continue;  // raced a grant (or another parker); re-classify
      }
    }
    const std::uint64_t t0 = now_ns();
    const ParkResult r = park(word, parked_val, deadline_ns);
    const std::uint64_t dt = now_ns() - t0;
    parked_once = true;
    if (o != nullptr) {
      ++o->parks;
      o->wait_ns += dt;
      if (r == ParkResult::kSpurious) ++o->spurious;
    }
    if (r == ParkResult::kTimedOut) {
      if (terminal != nullptr) {
        *terminal = word.load(std::memory_order_acquire);
      }
      return false;
    }
    // kWoken resolves at the top; kSpurious re-checks and re-parks.
  }
}

}  // namespace

std::uint32_t park_wait_u32(std::atomic<std::uint32_t>& word,
                            std::uint32_t wait_val, std::uint32_t parked_val,
                            ParkWaitOutcome* o) {
  std::uint32_t terminal = 0;
  (void)park_wait_core(word, wait_val, parked_val, /*deadline_ns=*/0,
                       &terminal, o);
  return terminal;
}

bool park_wait_until_u32(std::atomic<std::uint32_t>& word,
                         std::uint32_t wait_val, std::uint32_t parked_val,
                         std::uint64_t deadline_ns, std::uint32_t* terminal,
                         ParkWaitOutcome* o) {
  return park_wait_core(word, wait_val, parked_val, deadline_ns, terminal, o);
}

std::uint32_t park_grant_u32(std::atomic<std::uint32_t>& word,
                             std::uint32_t grant_val, std::uint32_t parked_val,
                             bool all) {
  const std::uint32_t old =
      word.exchange(grant_val, std::memory_order_acq_rel);
  if (old == parked_val) {
    if (all) {
      unpark_all(word);
    } else {
      unpark_one(word);
    }
  }
  return old;
}

// --- adaptive spin controller -----------------------------------------------

std::uint32_t park_spin_budget() {
  const std::uint32_t ewma = g_spin_ewma.load(std::memory_order_relaxed) >> 3;
  std::uint32_t b = 2 * ewma;
  if (b < kParkMinSpin) b = kParkMinSpin;
  if (b > kParkMaxSpin) b = kParkMaxSpin;
  return b;
}

void park_note_spin_grant(std::uint32_t spins) {
  // ewma += (sample - ewma) / 8, racy-relaxed on purpose: the controller
  // is a hint, and lost updates only slow adaptation.
  const std::uint32_t cur = g_spin_ewma.load(std::memory_order_relaxed);
  const std::int64_t sample = static_cast<std::int64_t>(spins) << 3;
  const std::int64_t next =
      static_cast<std::int64_t>(cur) + ((sample - cur) >> 3);
  g_spin_ewma.store(static_cast<std::uint32_t>(next < 0 ? 0 : next),
                    std::memory_order_relaxed);
}

void park_note_park_grant() {
  // Spinning was wasted: decay toward "park immediately".
  const std::uint32_t cur = g_spin_ewma.load(std::memory_order_relaxed);
  g_spin_ewma.store(cur - (cur >> 3), std::memory_order_relaxed);
}

// --- bounded-slice escalation -----------------------------------------------

void park_briefly(std::uint32_t round) {
  if (fault_park_spurious()) {
    // Spurious "wake" from an escalated sleep: skip the sleep entirely.
    g_inj_spurious.fetch_add(1, std::memory_order_relaxed);
    g_spurious.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t slice = kEscalateMinSliceNs
                        << (round < 8 ? round : 8);
  if (slice > kParkSliceNs) slice = kParkSliceNs;
  ParkScope scope(/*deadline_ns=*/0);
  g_parks.fetch_add(1, std::memory_order_relaxed);
  sleep_ns(slice);
}

// --- stats / census ---------------------------------------------------------

ParkStats park_stats() {
  ParkStats s;
  s.parks = g_parks.load(std::memory_order_relaxed);
  s.unparks = g_unparks.load(std::memory_order_relaxed);
  s.spurious_wakes = g_spurious.load(std::memory_order_relaxed);
  s.rearm_recoveries = g_rearm.load(std::memory_order_relaxed);
  s.injected_spurious = g_inj_spurious.load(std::memory_order_relaxed);
  s.injected_lost = g_inj_lost.load(std::memory_order_relaxed);
  s.injected_delays = g_inj_delays.load(std::memory_order_relaxed);
  return s;
}

void park_stats_reset() {
  g_parks.store(0, std::memory_order_relaxed);
  g_unparks.store(0, std::memory_order_relaxed);
  g_spurious.store(0, std::memory_order_relaxed);
  g_rearm.store(0, std::memory_order_relaxed);
  g_inj_spurious.store(0, std::memory_order_relaxed);
  g_inj_lost.store(0, std::memory_order_relaxed);
  g_inj_delays.store(0, std::memory_order_relaxed);
}

std::uint32_t parked_thread_count() {
  return g_parked_now.load(std::memory_order_relaxed);
}

ParkThreadState park_thread_state(std::uint32_t dense_index) {
  ParkThreadState out;
  if (dense_index >= kMaxThreads) return out;
  const Slot& s = g_slots[dense_index].value;
  out.parked_since_ns = s.since.load(std::memory_order_relaxed);
  out.deadline_ns = s.deadline.load(std::memory_order_relaxed);
  out.cum_parked_ns = s.cum.load(std::memory_order_relaxed);
  return out;
}

}  // namespace oll
