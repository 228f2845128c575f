// Spin-then-park blocking substrate (DESIGN.md §16).
//
// Every lock in this repo was built for the paper's evaluation setup —
// dedicated hardware threads, spin-based condition variables (§5.1).  On an
// oversubscribed host (threads ≫ cores) pure spinning inverts: a preempted
// holder turns every spinner into a scheduler-quantum sink, and throughput
// collapses by the core-to-thread ratio.  This file is the production
// escape hatch: a ParkingLot-style parking facility
//
//     park(word, expected, deadline)   — sleep while *word == expected
//     unpark_one(word) / unpark_all(word)
//
// backed by futexes on Linux (the kernel compares *word == expected
// atomically with respect to wakers, closing the sleep/wake race) and by a
// hashed mutex+condvar bucket table everywhere else (the portable fallback;
// OLL_PARK_FUTEX=0 forces it, which is what the aarch64 CI leg runs).
//
// Three design rules keep the substrate safe to wire into lock-free
// handoff protocols:
//
//  1. `unpark_*` never dereferences the word — the address is only a key
//     (futex uaddr / bucket hash).  A granter may therefore unpark a node
//     whose owning thread has already consumed the grant and destroyed the
//     node: the classic use-after-free of naive parking is structurally
//     impossible.
//
//  2. Parks are sliced: a parker never sleeps more than kParkSliceNs
//     before re-checking the word.  A wake that is genuinely lost (the
//     fault layer's park-lost profile simulates exactly this; a kernel or
//     fallback-table bug would be the real-world cause) degrades to one
//     bounded latency hiccup — counted as a rearm_recovery — never a
//     deadlock.  This is what makes `park-lost` runnable under the
//     fuzzer's progress oracle.
//
//  3. Fault decisions (spurious wake, lost wake, delayed wake) come from
//     the PR 5 deterministic per-thread streams (platform/fault.hpp):
//     (seed, dense thread index, draw counter) fully determine the
//     park/wake fault schedule, so a failing interleaving replays from a
//     one-line repro exactly like the cas/preempt profiles.
//
// The adaptive spin-then-park policy lives here too: park_spin_budget()
// is a global EWMA of recent spin-to-grant latencies — handoffs that
// arrive during the spin phase grow the budget toward 2× the observed
// latency (clamped), handoffs that arrive via park shrink it, so a
// saturated machine converges to "park almost immediately" while a
// lightly-loaded one keeps the paper's spin behavior.
//
// The substrate is always compiled in: a lock whose wait policy never
// selects parking pays only the untaken policy branch, measured at parity
// with a park-free build (EXPERIMENTS.md, "Compile-out switches on the
// 4-CPU host").
#pragma once

#include <atomic>
#include <cstdint>

namespace oll {

enum class ParkResult : std::uint8_t {
  kWoken,     // the word no longer holds `expected` (grant observed)
  kTimedOut,  // the deadline passed with the word still == expected
  kSpurious,  // returned with the word still == expected; caller re-checks
              // and re-parks (injected by park-spurious, or an OS-level
              // spurious futex return)
};

// Process-global substrate counters (all parks regardless of lock).
// Per-lock attribution lives in LockStats; these are the ground truth the
// fuzzer's zero-lost-wake check and the telemetry gauge read.
struct ParkStats {
  std::uint64_t parks = 0;             // park() calls that actually slept
  std::uint64_t unparks = 0;           // unpark_one/unpark_all calls
  std::uint64_t spurious_wakes = 0;    // kSpurious returns delivered
  std::uint64_t rearm_recoveries = 0;  // grant discovered at a slice
                                       // boundary instead of via a wake
                                       // (a lost/missed wake, recovered)
  std::uint64_t injected_spurious = 0;  // fault layer: park-spurious hits
  std::uint64_t injected_lost = 0;      // fault layer: park-lost hits
  std::uint64_t injected_delays = 0;    // fault layer: delayed-wake hits
};

// What the watchdog reads about one dense thread index (single-writer
// slots, owner-thread relaxed stores): when the thread parked (0 = not
// parked), the deadline it parked with (0 = none), and its cumulative
// parked nanoseconds — the census that separates "sleeping and healthy"
// from "runnable and not progressing" (DESIGN.md §16).
struct ParkThreadState {
  std::uint64_t parked_since_ns = 0;
  std::uint64_t deadline_ns = 0;
  std::uint64_t cum_parked_ns = 0;
};

// Sleep while `word == expected`, in bounded slices, until the word
// changes (kWoken), `deadline_ns` (platform now_ns() clock; 0 = none)
// passes (kTimedOut), or a spurious wake is delivered (kSpurious).  The
// caller must treat kSpurious like a condition-variable spurious wake:
// re-check its predicate and re-park.  Never sleeps if the word already
// differs.  The word is only ever loaded (acquire) — park() performs no
// stores to it; marker transitions (e.g. 0→parked) are the caller's
// protocol (see park_wait_u32 below for the packaged version).
ParkResult park(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::uint64_t deadline_ns = 0);

// Wake one / all threads parked on `word`.  Address-as-key only: never
// dereferences, safe after the waiter destroyed the word's storage.
void unpark_one(const std::atomic<std::uint32_t>& word);
void unpark_all(const std::atomic<std::uint32_t>& word);

// --- packaged spin-then-park wait protocol --------------------------------
//
// The repo's node flags all follow "spin on word == wait_val until the
// granter stores something else".  The parked marker makes the sleep
// visible to the granter: the parker CASes wait_val → parked_val before
// parking, and the granter *exchanges* its grant value in — if the old
// value was parked_val it calls unpark (the single-word consume-or-wake
// Dekker pairing, DESIGN.md §16.2).  The marker is sticky: a parker that
// wakes spuriously or times out leaves parked_val in place, so the worst
// case is one superfluous unpark of an empty address, never a lost wake.
//
// Outcome counters accumulate into `o` (plain fields, owned by the
// calling thread) for per-lock LockStats attribution.

struct ParkWaitOutcome {
  std::uint32_t parks = 0;
  std::uint32_t spurious = 0;
  std::uint64_t wait_ns = 0;  // total time spent parked (not spinning)
};

// Adaptive spin phase, then park.  Returns the terminal word value (any
// value other than wait_val / parked_val).  Multiple threads may wait on
// the same word (FOLL/ROLL shared reader nodes): they all converge on
// parked_val and the granter uses unpark_all.
std::uint32_t park_wait_u32(std::atomic<std::uint32_t>& word,
                            std::uint32_t wait_val, std::uint32_t parked_val,
                            ParkWaitOutcome* o = nullptr);

// Deadline-bounded variant: true once the word left {wait_val, parked_val}
// (terminal value in *terminal if non-null), false on timeout — the word
// then still holds wait_val or parked_val and the caller must run its
// abandon-or-consume protocol.  The parked marker is deliberately NOT
// reverted on timeout (see above).
bool park_wait_until_u32(std::atomic<std::uint32_t>& word,
                         std::uint32_t wait_val, std::uint32_t parked_val,
                         std::uint64_t deadline_ns,
                         std::uint32_t* terminal = nullptr,
                         ParkWaitOutcome* o = nullptr);

// Granter half: exchange grant_val in; if the displaced value was
// parked_val, unpark all sleepers on the word.  Returns the displaced
// value so protocol-specific granters (FOLL's orphan forwarding) can
// branch on it.  `all` selects unpark_all (shared reader nodes) vs
// unpark_one (single-waiter flags).
std::uint32_t park_grant_u32(std::atomic<std::uint32_t>& word,
                             std::uint32_t grant_val, std::uint32_t parked_val,
                             bool all = true);

// --- adaptive spin controller ---------------------------------------------

// Current spin budget (iterations) for the spin phase before parking.
std::uint32_t park_spin_budget();
// Feedback: a grant arrived after `spins` spin iterations (no park).
void park_note_spin_grant(std::uint32_t spins);
// Feedback: a grant arrived via park — spinning was wasted; shrink.
void park_note_park_grant();

// --- bounded-slice escalation (predicate-only spin sites) ------------------
//
// For spin loops with no wakeable word (the central lockword CAS loop,
// BRAVO's revocation scan): sleep one short slice, fully accounted as a
// park (gauge + census + stats), then return so the caller re-evaluates
// its predicate.  `round` grows the slice from kEscalateMinSliceNs toward
// kParkSliceNs.  SpinWait::pause() calls this once escalation is enabled
// and the yield phase is exhausted.
void park_briefly(std::uint32_t round);

// --- stats / census --------------------------------------------------------

ParkStats park_stats();
void park_stats_reset();  // test/bench hook; counters are cumulative

// Threads currently parked (telemetry gauge; includes park_briefly).
std::uint32_t parked_thread_count();

// Park census of one dense thread index (platform/thread_id.hpp).
ParkThreadState park_thread_state(std::uint32_t dense_index);

// Tuning constants, shared with tests.
inline constexpr std::uint64_t kParkSliceNs = 10'000'000;      // 10 ms
inline constexpr std::uint64_t kEscalateMinSliceNs = 50'000;   // 50 µs
inline constexpr std::uint32_t kParkMinSpin = 64;
inline constexpr std::uint32_t kParkMaxSpin = 4096;

}  // namespace oll
