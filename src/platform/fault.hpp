// Deterministic fault injection + schedule perturbation for lock code.
//
// Lock algorithms are full of windows that only open under adversarial
// scheduling: a CAS that must retry, a hand-off racing an abandonment, a
// holder preempted between its last store and the successor's load.  The
// hooks below let a test harness force those windows open *deterministically*
// — every decision derives from (global seed, dense thread index, per-thread
// draw counter), so a failing run is reproduced by replaying the same seed
// with the same thread placement (the fault_fuzz binary pins worker w to
// dense index w exactly like the bench harness).
//
// The hooks are always compiled in, with two runtime tiers:
//
//   * Disabled (the default): one relaxed load of a process-global mode
//     word and a predictable branch per hook.  Measured at parity with a
//     hook-free build on the uncontended fast paths (EXPERIMENTS.md,
//     "Compile-out switches on the 4-CPU host").
//   * Enabled: hooks consult a per-thread splitmix64 stream and may
//     (a) report that a CAS attempt should be treated as failed, (b) yield
//     or spin briefly to shear thread interleavings apart, or (c) stall for
//     a long "preemption window" at a hand-off/release point, simulating a
//     descheduled lock holder.
//
// Sites are coarse categories, not per-callsite ids: the sweep in fault_fuzz
// varies (seed × profile), and coarse categories keep decisions independent
// of incidental code layout so seeds stay meaningful across small refactors.
//
// Concurrency contract: the three query hooks are wait-free and safe from
// any thread; fault_enable/fault_disable are quiescent-only, same as the
// trace control plane.  Injection counters are relaxed and approximate.
#pragma once

#include <atomic>
#include <cstdint>

namespace oll {

enum class FaultSite : std::uint8_t {
  kCasRetry = 0,       // a compare-exchange attempt in a retry loop
  kQueueHandoff,       // granting/signalling a queued successor
  kSpinWait,           // a bounded or unbounded spin-wait iteration
  kHolderPreemption,   // lock holder about to publish a release
};

inline constexpr std::uint32_t kFaultSiteCount = 4;

inline const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kCasRetry: return "cas_retry";
    case FaultSite::kQueueHandoff: return "queue_handoff";
    case FaultSite::kSpinWait: return "spin_wait";
    case FaultSite::kHolderPreemption: return "holder_preemption";
  }
  return "?";
}

// All probabilities are in units of 1/1024 (0 = never, 1024 = always); spin
// counts are iterations of a relaxed pause loop plus a yield.
struct FaultProfile {
  const char* name = "off";
  std::uint32_t cas_fail_p = 0;    // forced CAS-failure probability
  std::uint32_t yield_p = 0;       // sched-yield probability at any site
  std::uint32_t delay_p = 0;       // short-delay probability at any site
  std::uint32_t delay_spins = 64;  // max spins of one injected delay
  std::uint32_t preempt_p = 0;     // holder-preemption window probability
  std::uint32_t preempt_spins = 4096;  // length of a preemption window
  // Parking faults (DESIGN.md §16.4), consumed by platform/park.cpp:
  std::uint32_t park_spurious_p = 0;  // park() returns without wake/grant
  std::uint32_t park_lost_p = 0;      // park() goes deaf for one slice —
                                      // real unparks in the window are lost
  std::uint32_t park_delay_p = 0;     // delayed wake: stall after a grant
  std::uint32_t park_delay_spins = 256;  // length of one delayed wake
};

// The named profiles the fault_fuzz sweep and --fault_profile understand.
//   off           — no injection (enabled-but-inert; useful as a control)
//   jitter        — light random yields/delays, no forced failures
//   cas           — aggressive forced CAS failures + mild jitter
//   preempt       — long holder-preemption windows at release points
//   chaos         — everything at once, the widest schedule net
//   park-spurious — frequent spurious park() returns (wake-with-no-grant)
//   park-lost     — parkers go deaf to wakes; the bounded-slice rearm must
//                   recover every one (progress-oracle food)
//   park-chaos    — spurious + lost + delayed wakes + mild jitter
FaultProfile fault_profile_jitter();
FaultProfile fault_profile_cas();
FaultProfile fault_profile_preempt();
FaultProfile fault_profile_chaos();
FaultProfile fault_profile_park_spurious();
FaultProfile fault_profile_park_lost();
FaultProfile fault_profile_park_chaos();

// Parse a profile name; returns false (and leaves *out alone) on unknown
// names.  "off" parses to the all-zero profile.
bool fault_profile_from_name(const char* name, FaultProfile* out);

struct FaultCounters {
  std::uint64_t forced_cas_fails = 0;
  std::uint64_t yields = 0;
  std::uint64_t delays = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t park_spurious = 0;
  std::uint64_t park_lost = 0;
  std::uint64_t park_delays = 0;
};

namespace fault_internal {
extern std::atomic<std::uint32_t> g_enabled;  // 0 = every hook early-outs
bool cas_should_fail(FaultSite site);
void perturb(FaultSite site);
void preempt_window(FaultSite site);
bool park_spurious();
bool park_lost();
std::uint32_t park_delay();
}  // namespace fault_internal

inline bool fault_injection_enabled() {
  return fault_internal::g_enabled.load(std::memory_order_relaxed) != 0;
}

// True iff the calling CAS-retry iteration should be treated as a failed
// attempt (reload and retry) even if the real CAS would have succeeded.
// Callers must only consult this where a genuine spurious failure
// (compare_exchange_weak) would also have been handled.
inline bool fault_cas_fail(FaultSite site) {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return fault_internal::cas_should_fail(site);
}

// Maybe yield or stall briefly; shears apart lock-step interleavings.
inline void fault_perturb(FaultSite site) {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) return;
  fault_internal::perturb(site);
}

// Maybe stall for a long window.  Placed where a lock holder is about to
// publish a release/hand-off, this simulates the holder being preempted
// with waiters already committed to waiting.
inline void fault_preempt_point(FaultSite site) {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) return;
  fault_internal::preempt_window(site);
}

// --- parking faults (consumed by platform/park.cpp) -----------------------
// Same per-thread deterministic streams as the hooks above: (seed, dense
// index, draw counter) fully determine the park/wake fault schedule.

// True iff this park() call should return kSpurious without sleeping.
inline bool fault_park_spurious() {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return fault_internal::park_spurious();
}

// True iff this park() call should go deaf for one bounded slice (real
// unparks in that window are dropped; the slice re-check recovers).
inline bool fault_park_lost() {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return fault_internal::park_lost();
}

// Spins to stall after a grant-carrying wake (0 = none) — models the
// scheduler delaying a woken thread's first run.
inline std::uint32_t fault_park_delay() {
  if (fault_internal::g_enabled.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  return fault_internal::park_delay();
}

// --- control plane (quiescent-only) ---------------------------------------

// Arm injection with `profile` and a global seed.  Per-thread decision
// streams are derived from (seed, dense thread index) and reset here, so
// two runs with identical seeds and thread placement draw identically.
void fault_enable(const FaultProfile& profile, std::uint64_t seed);
void fault_disable();

// Relaxed snapshot of injections performed since fault_enable.
FaultCounters fault_counters();

}  // namespace oll
