#include "platform/fault.hpp"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "platform/thread_id.hpp"

namespace oll {

FaultProfile fault_profile_jitter() {
  FaultProfile p;
  p.name = "jitter";
  p.yield_p = 64;
  p.delay_p = 128;
  p.delay_spins = 64;
  return p;
}

FaultProfile fault_profile_cas() {
  FaultProfile p;
  p.name = "cas";
  p.cas_fail_p = 512;
  p.yield_p = 32;
  p.delay_p = 64;
  p.delay_spins = 32;
  return p;
}

FaultProfile fault_profile_preempt() {
  FaultProfile p;
  p.name = "preempt";
  p.yield_p = 32;
  p.preempt_p = 128;
  p.preempt_spins = 4096;
  return p;
}

FaultProfile fault_profile_chaos() {
  FaultProfile p;
  p.name = "chaos";
  p.cas_fail_p = 256;
  p.yield_p = 96;
  p.delay_p = 128;
  p.delay_spins = 128;
  p.preempt_p = 64;
  p.preempt_spins = 2048;
  return p;
}

FaultProfile fault_profile_park_spurious() {
  FaultProfile p;
  p.name = "park-spurious";
  p.park_spurious_p = 256;
  return p;
}

FaultProfile fault_profile_park_lost() {
  FaultProfile p;
  p.name = "park-lost";
  p.park_lost_p = 192;
  p.yield_p = 32;
  return p;
}

FaultProfile fault_profile_park_chaos() {
  FaultProfile p;
  p.name = "park-chaos";
  p.park_spurious_p = 128;
  p.park_lost_p = 96;
  p.park_delay_p = 128;
  p.park_delay_spins = 512;
  p.yield_p = 64;
  p.delay_p = 64;
  p.delay_spins = 64;
  return p;
}

bool fault_profile_from_name(const char* name, FaultProfile* out) {
  if (std::strcmp(name, "off") == 0) {
    *out = FaultProfile{};
    return true;
  }
  if (std::strcmp(name, "jitter") == 0) {
    *out = fault_profile_jitter();
    return true;
  }
  if (std::strcmp(name, "cas") == 0) {
    *out = fault_profile_cas();
    return true;
  }
  if (std::strcmp(name, "preempt") == 0) {
    *out = fault_profile_preempt();
    return true;
  }
  if (std::strcmp(name, "chaos") == 0) {
    *out = fault_profile_chaos();
    return true;
  }
  if (std::strcmp(name, "park-spurious") == 0) {
    *out = fault_profile_park_spurious();
    return true;
  }
  if (std::strcmp(name, "park-lost") == 0) {
    *out = fault_profile_park_lost();
    return true;
  }
  if (std::strcmp(name, "park-chaos") == 0) {
    *out = fault_profile_park_chaos();
    return true;
  }
  return false;
}

namespace fault_internal {

std::atomic<std::uint32_t> g_enabled{0};

namespace {

// Active configuration.  Written only by the quiescent control plane; read
// relaxed from hooks after they observe g_enabled != 0.
FaultProfile g_profile;
std::uint64_t g_seed = 0;
// Bumped by every fault_enable so per-thread streams lazily reseed; a thread
// whose slot generation mismatches re-derives its state from (seed, index).
std::atomic<std::uint32_t> g_generation{0};

std::atomic<std::uint64_t> g_forced_cas_fails{0};
std::atomic<std::uint64_t> g_yields{0};
std::atomic<std::uint64_t> g_delays{0};
std::atomic<std::uint64_t> g_preemptions{0};
std::atomic<std::uint64_t> g_park_spurious{0};
std::atomic<std::uint64_t> g_park_lost{0};
std::atomic<std::uint64_t> g_park_delays{0};

constexpr std::size_t kCacheLine = 64;

struct alignas(kCacheLine) ThreadStream {
  std::uint64_t state = 0;
  std::uint32_t generation = 0;  // matches g_generation when seeded
};

ThreadStream g_streams[kMaxThreads];

inline std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The calling thread's deterministic stream, reseeded on generation change.
// Single writer per dense index (same contract as the trace rings and the
// LockStats slots): concurrent dense-index aliasing is a harness bug.
inline ThreadStream& my_stream() {
  const std::uint32_t idx = this_thread_index() % kMaxThreads;
  ThreadStream& ts = g_streams[idx];
  const std::uint32_t gen =
      g_generation.load(std::memory_order_acquire);
  if (ts.generation != gen) {
    ts.state = g_seed ^ (0x5851f42d4c957f2dull * (idx + 1));
    ts.generation = gen;
  }
  return ts;
}

// One draw in [0, 1024).
inline std::uint32_t draw_p(ThreadStream& ts) {
  return static_cast<std::uint32_t>(splitmix64(ts.state) & 1023u);
}

inline void stall(std::uint32_t spins) {
  for (std::uint32_t i = 0; i < spins; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    // seq_cst signal fence: a compiler-only barrier standing in for the
    // pause instruction — keeps the loop from being folded away without
    // emitting any hardware fence.
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
  std::this_thread::yield();
}

}  // namespace

bool cas_should_fail(FaultSite /*site*/) {
  ThreadStream& ts = my_stream();
  if (g_profile.cas_fail_p == 0) return false;
  if (draw_p(ts) >= g_profile.cas_fail_p) return false;
  g_forced_cas_fails.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void perturb(FaultSite /*site*/) {
  ThreadStream& ts = my_stream();
  const std::uint32_t r = draw_p(ts);
  if (g_profile.delay_p != 0 && r < g_profile.delay_p) {
    g_delays.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t spins =
        g_profile.delay_spins == 0
            ? 0
            : static_cast<std::uint32_t>(splitmix64(ts.state) %
                                         g_profile.delay_spins) +
                  1;
    stall(spins);
    return;
  }
  if (g_profile.yield_p != 0 && r < g_profile.delay_p + g_profile.yield_p) {
    g_yields.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void preempt_window(FaultSite site) {
  ThreadStream& ts = my_stream();
  if (g_profile.preempt_p != 0 && draw_p(ts) < g_profile.preempt_p) {
    g_preemptions.fetch_add(1, std::memory_order_relaxed);
    stall(g_profile.preempt_spins);
    return;
  }
  // A release point is also a fine place for ordinary jitter.
  perturb(site);
}

bool park_spurious() {
  if (g_profile.park_spurious_p == 0) return false;
  ThreadStream& ts = my_stream();
  if (draw_p(ts) >= g_profile.park_spurious_p) return false;
  g_park_spurious.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool park_lost() {
  if (g_profile.park_lost_p == 0) return false;
  ThreadStream& ts = my_stream();
  if (draw_p(ts) >= g_profile.park_lost_p) return false;
  g_park_lost.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint32_t park_delay() {
  if (g_profile.park_delay_p == 0) return 0;
  ThreadStream& ts = my_stream();
  if (draw_p(ts) >= g_profile.park_delay_p) return 0;
  g_park_delays.fetch_add(1, std::memory_order_relaxed);
  if (g_profile.park_delay_spins == 0) return 0;
  return static_cast<std::uint32_t>(splitmix64(ts.state) %
                                    g_profile.park_delay_spins) +
         1;
}

}  // namespace fault_internal

void fault_enable(const FaultProfile& profile, std::uint64_t seed) {
  using namespace fault_internal;
  g_profile = profile;
  g_seed = seed;
  g_forced_cas_fails.store(0, std::memory_order_relaxed);
  g_yields.store(0, std::memory_order_relaxed);
  g_delays.store(0, std::memory_order_relaxed);
  g_preemptions.store(0, std::memory_order_relaxed);
  g_park_spurious.store(0, std::memory_order_relaxed);
  g_park_lost.store(0, std::memory_order_relaxed);
  g_park_delays.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
  g_enabled.store(1, std::memory_order_release);
}

void fault_disable() {
  fault_internal::g_enabled.store(0, std::memory_order_release);
}

FaultCounters fault_counters() {
  using namespace fault_internal;
  FaultCounters c;
  c.forced_cas_fails = g_forced_cas_fails.load(std::memory_order_relaxed);
  c.yields = g_yields.load(std::memory_order_relaxed);
  c.delays = g_delays.load(std::memory_order_relaxed);
  c.preemptions = g_preemptions.load(std::memory_order_relaxed);
  c.park_spurious = g_park_spurious.load(std::memory_order_relaxed);
  c.park_lost = g_park_lost.load(std::memory_order_relaxed);
  c.park_delays = g_park_delays.load(std::memory_order_relaxed);
  return c;
}

}  // namespace oll
