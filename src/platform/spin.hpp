// Progressive spin-wait.
//
// All busy-wait loops in this repository must make progress even when the
// machine is heavily oversubscribed (the evaluation host may have a single
// hardware thread, while the paper's workloads run hundreds of software
// threads).  SpinWait spins politely for a short burst and then starts
// yielding to the OS scheduler, so a thread spinning on a flag can never
// starve the thread that is about to set it.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "platform/cpu.hpp"
#include "platform/fault.hpp"
#include "platform/park.hpp"

namespace oll {

// Paper-faithful spin discipline (§5.1's dedicated-hardware-thread
// assumption): when enabled, SpinWait never escalates past cpu_relax — no
// yield, no park — so a preempted flag-setter is waited out by burning
// whole scheduler quanta, exactly as the paper's evaluation spins.  This
// exists so bench/oversubscribe.cpp can measure what that discipline costs
// when threads outnumber cores; nothing enables it by default.  Seeded
// from OLL_PURE_SPIN=1 at first use, switchable at runtime by the bench
// (affects SpinWait objects constructed after the switch).
inline std::atomic<bool>& pure_spin_flag() {
  static std::atomic<bool> flag([] {
    const char* env = std::getenv("OLL_PURE_SPIN");
    return env != nullptr && std::strcmp(env, "0") != 0;
  }());
  return flag;
}

inline bool pure_spin_enabled() {
  return pure_spin_flag().load(std::memory_order_relaxed);
}

inline void set_pure_spin(bool on) {
  pure_spin_flag().store(on, std::memory_order_relaxed);
}

class SpinWait {
 public:
  // `spin_limit` polite pause iterations before the first yield.
  // `park_escalate` arms the park escalation hook (DESIGN.md §16.3) for
  // predicate-only spin sites with no wakeable word (the central lockword
  // CAS loop, BRAVO's revocation scan): after kEscalateYields yields the
  // wait escalates to bounded park_briefly() slices — fully censused
  // sleeps the watchdog and telemetry see — so an oversubscribed host
  // stops burning whole scheduler quanta on a flag that will not change
  // soon.  Never enabled by default.
  explicit SpinWait(unsigned spin_limit = kDefaultSpinLimit,
                    bool park_escalate = false) noexcept
      : spin_limit_(spin_limit),
        park_escalate_(park_escalate),
        pure_(pure_spin_enabled()) {}

  // One wait step.  Cheap pause while under the limit, sched yield after,
  // bounded park slices after that (when escalation is armed).  Every
  // spin-wait in the library funnels through here, so this is also the
  // central schedule-perturbation point for the fault harness (one
  // relaxed load + branch when idle).
  void pause() noexcept {
    fault_perturb(FaultSite::kSpinWait);
    if (pure_) {
      cpu_relax();
      return;
    }
    if (count_ < spin_limit_) {
      ++count_;
      cpu_relax();
      return;
    }
    if (!park_escalate_ || yields_ < kEscalateYields) {
      ++yields_;
      std::this_thread::yield();
      return;
    }
    park_briefly(rounds_);
    ++rounds_;
  }

  void reset() noexcept {
    count_ = 0;
    yields_ = 0;
    rounds_ = 0;
  }

  unsigned spins() const noexcept { return count_; }

  static constexpr unsigned kDefaultSpinLimit = 64;
  // Yields between the spin phase and the first escalated sleep.
  static constexpr unsigned kEscalateYields = 64;

 private:
  unsigned spin_limit_;
  unsigned count_ = 0;
  unsigned yields_ = 0;
  unsigned rounds_ = 0;
  bool park_escalate_ = false;
  bool pure_ = false;
};

// Spin until `pred()` returns true.  `pred` must be a cheap, side-effect-free
// check of an atomic (acquire semantics belong inside the predicate).
// `park_escalate` arms the bounded-slice park escalation (see SpinWait).
template <typename Pred>
inline void spin_until(Pred&& pred,
                       unsigned spin_limit = SpinWait::kDefaultSpinLimit,
                       bool park_escalate = false) {
  SpinWait w(spin_limit, park_escalate);
  while (!pred()) {
    w.pause();
  }
}

}  // namespace oll
