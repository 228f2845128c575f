// Lock event tracing: per-thread ring buffers of typed, timestamped records.
//
// The hot-path contract has three tiers:
//
//   * OLL_TRACE=0 (compile-time kill switch, a CMake cache variable): every
//     hook below is an empty constexpr inline function.  No code, no branch,
//     no atomic load — the binary is bit-for-bit oblivious to tracing.
//   * Compiled in, runtime-disabled (the default): each hook is one relaxed
//     load of a process-global mode word and a predictable branch.  In sim
//     builds this costs zero *virtual* time (only sim::Atomic ops are
//     charged), so the fig5 trajectory gate is unaffected by construction.
//   * Runtime-enabled: events append to a fixed-capacity per-thread ring
//     (cache-aligned slots, single writer per dense thread index, release
//     publication), wrapping on overflow with a drop count.  Latency timing
//     (the histogram feed, locks/lock_stats.hpp) is a separate runtime bit
//     so benches can collect percentiles without filling rings.
//
// Timestamps come from a pluggable clock (trace_set_clock): real builds use
// platform/time.hpp's monotonic now_ns(); the bench harness installs the
// simulated per-thread virtual clock for sim runs, so traces and histograms
// are in the same time base as the throughput numbers they explain.
//
// Concurrency contract: emit is wait-free and safe from any registered
// thread; trace_drain() may run concurrently with emitters (all ring state
// is atomic, so a concurrent drain is merely approximate — it can observe a
// torn view of a record being overwritten); enable/disable/set_clock are
// quiescent-only operations.  Exact drains require quiescence, the same
// contract as every stats snapshot in this repository.
#pragma once

#include <cstdint>
#include <vector>

#ifndef OLL_TRACE
#define OLL_TRACE 1
#endif

#if OLL_TRACE
#include <atomic>
#endif

namespace oll {

enum class TraceEventType : std::uint8_t {
  kReadAcquireBegin = 0,
  kReadAcquireEnd,
  kWriteAcquireBegin,
  kWriteAcquireEnd,
  kReadRelease,
  kWriteRelease,
  kQueueEnter,  // thread started waiting (queue node / spin flag / revoke)
  kQueueExit,   // thread granted after waiting
  kBiasRevoke,  // BRAVO writer revoked reader bias
  kCsnziClose,  // a C-SNZI transitioned open -> closed
  kCsnziOpen,   // a C-SNZI transitioned closed -> open
  // Optimistic read mode (locks/versioned_rwlock.hpp).  Begin/End bracket
  // one begin-to-validate attempt (successful or not); ValidationFail and
  // Fallback are instants at the failing validate / the retry loop's
  // surrender to the pessimistic path.
  kOptReadBegin,
  kOptReadEnd,
  kOptValidationFail,
  kOptFallback,
  // Delegated/combined writer path (locks/combining.hpp).  Publish marks a
  // writer handing its closure to the combining pool; Begin/End bracket one
  // holder's drain batch (the slice covers every closure it executed for
  // other threads before releasing).
  kCombinePublish,
  kCombineBegin,
  kCombineEnd,
};

inline constexpr std::uint32_t kTraceEventTypeCount = 18;

inline const char* trace_event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kReadAcquireBegin: return "read_acquire_begin";
    case TraceEventType::kReadAcquireEnd: return "read_acquire_end";
    case TraceEventType::kWriteAcquireBegin: return "write_acquire_begin";
    case TraceEventType::kWriteAcquireEnd: return "write_acquire_end";
    case TraceEventType::kReadRelease: return "read_release";
    case TraceEventType::kWriteRelease: return "write_release";
    case TraceEventType::kQueueEnter: return "queue_enter";
    case TraceEventType::kQueueExit: return "queue_exit";
    case TraceEventType::kBiasRevoke: return "bias_revoke";
    case TraceEventType::kCsnziClose: return "csnzi_close";
    case TraceEventType::kCsnziOpen: return "csnzi_open";
    case TraceEventType::kOptReadBegin: return "opt_read_begin";
    case TraceEventType::kOptReadEnd: return "opt_read_end";
    case TraceEventType::kOptValidationFail: return "opt_validation_fail";
    case TraceEventType::kOptFallback: return "opt_fallback";
    case TraceEventType::kCombinePublish: return "combine_publish";
    case TraceEventType::kCombineBegin: return "combine_begin";
    case TraceEventType::kCombineEnd: return "combine_end";
  }
  return "?";
}

struct TraceRecord {
  std::uint64_t ts = 0;       // trace-clock units (ns real / cycles sim)
  const void* obj = nullptr;  // the lock (or C-SNZI) the event concerns
  std::uint32_t tid = 0;      // dense thread index at emit time
  // Acquire-site tag active at emit time (platform/lock_registry.hpp:
  // OLL_LOCK_SITE via ScopedLockSite); 0 = untagged.  Lets the trace
  // export attribute events to the call site that initiated them.
  std::uint32_t site = 0;
  TraceEventType type{};
};

struct TraceOptions {
  // Records per thread ring.  On overflow the ring wraps (newest records
  // win) and the overwritten count is reported by trace_drain().
  std::uint32_t ring_capacity = 1u << 13;
};

struct TraceDump {
  std::vector<TraceRecord> records;  // ascending timestamp order
  std::uint64_t dropped = 0;         // records lost to ring wrap, all threads
};

using TraceClockFn = std::uint64_t (*)();

// Acquire-latency timer returned by obs_begin.  `armed` is true iff latency
// timing was runtime-enabled at begin; with OLL_TRACE=0 it is constexpr
// false, so `if (t.armed) record(...)` call sites fold away entirely.
struct ObsTimer {
  std::uint64_t begin = 0;
  bool armed = false;
};

#if OLL_TRACE

namespace trace_internal {
inline constexpr std::uint32_t kEventsBit = 1u;
inline constexpr std::uint32_t kTimingBit = 2u;
// bit 0: event rings live; bit 1: latency timing (histograms) live.
extern std::atomic<std::uint32_t> g_mode;
std::uint64_t clock_now();
void emit(TraceEventType type, const void* obj, std::uint64_t ts);
}  // namespace trace_internal

inline bool trace_events_enabled() {
  return (trace_internal::g_mode.load(std::memory_order_relaxed) &
          trace_internal::kEventsBit) != 0;
}

inline bool latency_timing_enabled() {
  return (trace_internal::g_mode.load(std::memory_order_relaxed) &
          trace_internal::kTimingBit) != 0;
}

// Either of the two: lets a caller skip bookkeeping only an observer reads.
inline bool observation_enabled() {
  return trace_internal::g_mode.load(std::memory_order_relaxed) != 0;
}

// Fire-and-forget instantaneous event (releases, revocations, C-SNZI state
// flips).
inline void trace_event(TraceEventType type, const void* obj) {
  if ((trace_internal::g_mode.load(std::memory_order_relaxed) &
       trace_internal::kEventsBit) == 0) {
    return;
  }
  trace_internal::emit(type, obj, trace_internal::clock_now());
}

// Paired begin/end hooks around an acquisition (or a wait).  obs_end always
// emits the end event when events are enabled; its return value is the
// elapsed time iff `t.armed`, else 0.
inline ObsTimer obs_begin(TraceEventType type, const void* obj) {
  const std::uint32_t m =
      trace_internal::g_mode.load(std::memory_order_relaxed);
  if (m == 0) return {};
  const std::uint64_t ts = trace_internal::clock_now();
  if ((m & trace_internal::kEventsBit) != 0) {
    trace_internal::emit(type, obj, ts);
  }
  return {ts, (m & trace_internal::kTimingBit) != 0};
}

inline std::uint64_t obs_end(TraceEventType type, const void* obj,
                             const ObsTimer& t) {
  const std::uint32_t m =
      trace_internal::g_mode.load(std::memory_order_relaxed);
  if (m == 0 && !t.armed) return 0;
  const std::uint64_t ts = trace_internal::clock_now();
  if ((m & trace_internal::kEventsBit) != 0) {
    trace_internal::emit(type, obj, ts);
  }
  if (!t.armed) return 0;
  return ts >= t.begin ? ts - t.begin : 0;
}

// --- control plane (quiescent-only, except trace_drain) -------------------

void trace_enable(const TraceOptions& opts = {});
void trace_disable();
void latency_timing_enable();
void latency_timing_disable();

// Collect and clear every thread's ring.  Safe concurrently with emitters
// (approximate); exact at quiescence.
TraceDump trace_drain();

// Install the timestamp source (nullptr restores the real-time default).
void trace_set_clock(TraceClockFn fn);

#else  // OLL_TRACE == 0: every hook is an empty inline, no code at all.

inline constexpr bool trace_events_enabled() { return false; }
inline constexpr bool latency_timing_enabled() { return false; }
inline constexpr bool observation_enabled() { return false; }
inline constexpr void trace_event(TraceEventType, const void*) {}
inline constexpr ObsTimer obs_begin(TraceEventType, const void*) {
  return {};
}
inline constexpr std::uint64_t obs_end(TraceEventType, const void*,
                                       const ObsTimer&) {
  return 0;
}
inline void trace_enable(const TraceOptions& = {}) {}
inline void trace_disable() {}
inline void latency_timing_enable() {}
inline void latency_timing_disable() {}
inline TraceDump trace_drain() { return {}; }
inline void trace_set_clock(TraceClockFn) {}

#endif  // OLL_TRACE

}  // namespace oll
