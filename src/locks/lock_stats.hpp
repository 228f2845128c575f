// Optional per-lock operation statistics.
//
// Counters are kept in per-thread cache-aligned slots (no shared-line
// traffic on the hot path — a stats counter that serialized readers would
// defeat the very property being measured) and aggregated on demand.  GOLL,
// FOLL and ROLL update them so tests and users can verify the paper's
// mechanisms directly: e.g. at 100% reads GOLL must report zero queued
// acquisitions — readers never touch the metalock (§3.2) — and FOLL must
// report that almost all readers shared an existing node (§4.2).  The BRAVO
// layer (locks/bravo.hpp) additionally counts bias-path reads and
// revocations, which is how tests verify that biased readers really skip
// the underlying lock's shared RMWs.
//
// Beyond event counts, the lock keeps six log2-bucketed latency histograms
// per thread (platform/histogram.hpp): read-acquire, write-acquire,
// writer-wait-while-readers-drain, timed-acquire, optimistic-read and
// park-wait.  The locks feed them only while the observability layer's
// latency timing is runtime-enabled (platform/trace.hpp) or, for park-wait,
// when a waiter actually parked, so the default-configuration hot path pays
// nothing beyond one relaxed flag load per acquisition — and nothing at all
// when compiled with OLL_TRACE=0.
//
// Pay-for-use storage (DESIGN.md §17): the histograms are ~2.4 KiB per
// thread against 160 bytes of counters, and most locks never record one —
// a B-tree of 4,681 latches at max_threads=4 spent 80 % of its heap on
// histogram slots nobody wrote.  So the per-thread counter slot holds only
// the counters, and the histograms live in one per-lock LazyPerThreadSlots
// block (locks/per_thread.hpp) published by the first record; a null block
// reads as empty histograms, which is what a never-written block would
// have held.
//
// Each slot has exactly one writer (its thread), but snapshot() may run
// concurrently with increments, so the fields are atomics accessed with
// relaxed ordering: single-writer means load+store increments are not lost,
// and relaxed cross-thread reads make the aggregate approximate but
// race-free (exact at quiescence).
#pragma once

#include <atomic>
#include <cstdint>

#include "locks/per_thread.hpp"
#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/histogram.hpp"
#include "platform/thread_id.hpp"
#include "snzi/csnzi_stats.hpp"

namespace oll {

struct LockStatsSnapshot {
  std::uint64_t read_fast = 0;    // reader acquired without queueing
  std::uint64_t read_queued = 0;  // reader slept in the queue / enqueued node
  std::uint64_t write_fast = 0;   // writer acquired on the fast path
  std::uint64_t write_queued = 0; // writer queued / waited for readers
  std::uint64_t read_bias = 0;    // reader took the BRAVO bias fast path
  std::uint64_t bias_revoke = 0;  // writer revoked reader bias

  // Arrival-path counters summed over the lock's C-SNZI instances (GOLL has
  // one; FOLL/ROLL sum their reader-node pool).  See snzi/csnzi_stats.hpp.
  CSnziStatsSnapshot csnzi{};

  // Writer-arbitration handoff counters (locks/cohort_mcs_lock.hpp and the
  // wait queue's domain-preferring wake policy).  meta_* count metalock
  // ownership transfers: every direct handoff, the subset that stayed in the
  // releasing holder's LLC domain, and global-lock passes to another domain.
  // wake_* count writer *wakes*: grants that stayed in the releaser's domain
  // vs. grants that crossed domains (FOLL/ROLL report their MCS-chain writer
  // handoffs under wake_* too — they have no separate metalock).
  std::uint64_t meta_handoffs = 0;
  std::uint64_t meta_cohort_hits = 0;
  std::uint64_t meta_cross_domain = 0;
  std::uint64_t wake_cohort_hits = 0;
  std::uint64_t wake_cross_domain = 0;

  // Timed/cancellable acquisition (DESIGN.md §11).  *_timeouts count timed
  // acquisitions that returned failure; *_abandons count the subset that had
  // already committed to a wait (queue node enqueued / C-SNZI arrival made)
  // and had to back it out.  revoke_timeouts counts BRAVO revocation scans
  // whose per-slot wait exceeded the bounded-backoff budget (the writer
  // still completes the scan — exclusion cannot be abandoned — but the
  // incident is visible instead of a silent stall).
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  std::uint64_t read_abandons = 0;
  std::uint64_t write_abandons = 0;
  std::uint64_t revoke_timeouts = 0;

  // Optimistic read mode (locks/versioned_rwlock.hpp, DESIGN.md §13).
  // opt_reads counts validated (consistent) optimistic reads — the reads
  // that touched zero shared cache lines for their whole duration;
  // opt_validation_failures counts attempts a writer (or injected fault)
  // invalidated, whether at begin (stamp odd) or at validate (stamp moved);
  // opt_fallbacks counts retry loops that exhausted their budget and took
  // the pessimistic shared path (those reads also appear in read_*).
  std::uint64_t opt_reads = 0;
  std::uint64_t opt_validation_failures = 0;
  std::uint64_t opt_fallbacks = 0;

  // Delegated/combined writer path (locks/combining.hpp, DESIGN.md §15).
  // combined_ops counts closures a holder executed *for other threads*
  // during its pre-release drains; combine_batches counts drains that
  // executed at least one closure; combine_handoffs_saved counts delegated
  // with_write calls that completed via a combiner (each one is a writer
  // acquisition — metalock handoff, queue wake, data-line migration — that
  // never happened).  A combined op appears in none of the write_* counters:
  // writes() deliberately reports only operations that took ownership.
  std::uint64_t combined_ops = 0;
  std::uint64_t combine_batches = 0;
  std::uint64_t combine_handoffs_saved = 0;

  // Spin-then-park substrate (platform/park.hpp, DESIGN.md §16), populated
  // only for locks created with WaitPolicy::kSpinThenPark.  parks counts
  // park() calls this lock's waiters made (re-parks after a spurious wake
  // count again); unparks counts wakes this lock's granters issued;
  // spurious_wakes counts park() returns that carried no grant (injected
  // by park-spurious/park-chaos, OS-level, or fallback hash collisions).
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
  std::uint64_t spurious_wakes = 0;

  // Latency distributions in trace-clock units (ns real / cycles sim);
  // populated only while latency timing is runtime-enabled.  writer_wait
  // covers the interval a writer spends waiting for the lock after missing
  // its fast path — for the OLL locks that is dominated by waiting for the
  // current reader group to drain; for BRAVO it is the revocation scan.
  HistogramSnapshot read_acquire{};
  HistogramSnapshot write_acquire{};
  HistogramSnapshot writer_wait{};
  // Latency of try_*_for calls, successful or not (a timeout contributes
  // roughly its deadline).  Fed under the same runtime-timing gate.
  HistogramSnapshot timed_acquire{};
  // Begin-to-validate latency of *successful* optimistic reads (failures
  // restart and land here only once they eventually validate).
  HistogramSnapshot opt_read{};
  // Time waiters of this lock spent parked (not spinning), ns.  Fed
  // unconditionally when parking is active — parked time is by definition
  // off the hot path, so it is not gated on the latency-timing flag.
  HistogramSnapshot park_wait{};

  std::uint64_t reads() const { return read_fast + read_queued + read_bias; }
  std::uint64_t writes() const { return write_fast + write_queued; }

  LockStatsSnapshot& operator+=(const LockStatsSnapshot& o) {
    read_fast += o.read_fast;
    read_queued += o.read_queued;
    write_fast += o.write_fast;
    write_queued += o.write_queued;
    read_bias += o.read_bias;
    bias_revoke += o.bias_revoke;
    csnzi += o.csnzi;
    meta_handoffs += o.meta_handoffs;
    meta_cohort_hits += o.meta_cohort_hits;
    meta_cross_domain += o.meta_cross_domain;
    wake_cohort_hits += o.wake_cohort_hits;
    wake_cross_domain += o.wake_cross_domain;
    read_timeouts += o.read_timeouts;
    write_timeouts += o.write_timeouts;
    read_abandons += o.read_abandons;
    write_abandons += o.write_abandons;
    revoke_timeouts += o.revoke_timeouts;
    opt_reads += o.opt_reads;
    opt_validation_failures += o.opt_validation_failures;
    opt_fallbacks += o.opt_fallbacks;
    combined_ops += o.combined_ops;
    combine_batches += o.combine_batches;
    combine_handoffs_saved += o.combine_handoffs_saved;
    parks += o.parks;
    unparks += o.unparks;
    spurious_wakes += o.spurious_wakes;
    read_acquire += o.read_acquire;
    write_acquire += o.write_acquire;
    writer_wait += o.writer_wait;
    timed_acquire += o.timed_acquire;
    opt_read += o.opt_read;
    park_wait += o.park_wait;
    return *this;
  }

  // Baseline subtraction: `*this - o` where o is an earlier snapshot of the
  // same lock, yielding the delta for the phase in between (warmup vs.
  // measured).  Histogram maxes remain high-water marks.
  LockStatsSnapshot& operator-=(const LockStatsSnapshot& o) {
    read_fast -= o.read_fast;
    read_queued -= o.read_queued;
    write_fast -= o.write_fast;
    write_queued -= o.write_queued;
    read_bias -= o.read_bias;
    bias_revoke -= o.bias_revoke;
    csnzi -= o.csnzi;
    meta_handoffs -= o.meta_handoffs;
    meta_cohort_hits -= o.meta_cohort_hits;
    meta_cross_domain -= o.meta_cross_domain;
    wake_cohort_hits -= o.wake_cohort_hits;
    wake_cross_domain -= o.wake_cross_domain;
    read_timeouts -= o.read_timeouts;
    write_timeouts -= o.write_timeouts;
    read_abandons -= o.read_abandons;
    write_abandons -= o.write_abandons;
    revoke_timeouts -= o.revoke_timeouts;
    opt_reads -= o.opt_reads;
    opt_validation_failures -= o.opt_validation_failures;
    opt_fallbacks -= o.opt_fallbacks;
    combined_ops -= o.combined_ops;
    combine_batches -= o.combine_batches;
    combine_handoffs_saved -= o.combine_handoffs_saved;
    parks -= o.parks;
    unparks -= o.unparks;
    spurious_wakes -= o.spurious_wakes;
    read_acquire -= o.read_acquire;
    write_acquire -= o.write_acquire;
    writer_wait -= o.writer_wait;
    timed_acquire -= o.timed_acquire;
    opt_read -= o.opt_read;
    park_wait -= o.park_wait;
    return *this;
  }
};

class LockStats {
 public:
  explicit LockStats(std::uint32_t max_threads)
      : slots_(max_threads), hist_(max_threads) {}

  LockStats(const LockStats&) = delete;
  LockStats& operator=(const LockStats&) = delete;

  void count_read_fast() { bump(slots_.local().read_fast); }
  void count_read_queued() { bump(slots_.local().read_queued); }
  void count_write_fast() { bump(slots_.local().write_fast); }
  void count_write_queued() { bump(slots_.local().write_queued); }
  void count_read_bias() { bump(slots_.local().read_bias); }
  void count_bias_revoke() { bump(slots_.local().bias_revoke); }
  void count_read_timeout() { bump(slots_.local().read_timeouts); }
  void count_write_timeout() { bump(slots_.local().write_timeouts); }
  void count_read_abandon() { bump(slots_.local().read_abandons); }
  void count_write_abandon() { bump(slots_.local().write_abandons); }
  void count_revoke_timeout() { bump(slots_.local().revoke_timeouts); }
  void count_opt_read() { bump(slots_.local().opt_reads); }
  void count_opt_validation_failure() {
    bump(slots_.local().opt_validation_failures);
  }
  void count_opt_fallback() { bump(slots_.local().opt_fallbacks); }
  // n closures executed in one drain (single increment per batch keeps the
  // combiner's post-drain bookkeeping off the per-closure path).
  void count_combined_ops(std::uint64_t n) {
    add(slots_.local().combined_ops, n);
  }
  void count_combine_batch() { bump(slots_.local().combine_batches); }
  void count_combine_handoff_saved() {
    bump(slots_.local().combine_handoffs_saved);
  }
  // Park outcome of one wait episode: n parks, sp spurious returns, and
  // the total parked nanoseconds (one park_wait histogram sample).
  void count_park_outcome(std::uint64_t n, std::uint64_t sp,
                          std::uint64_t wait_ns) {
    if (n == 0 && sp == 0) return;
    Slot& s = slots_.local();
    add(s.parks, n);
    add(s.spurious_wakes, sp);
    if (wait_ns != 0) local_histograms().park_wait.add(wait_ns);
  }
  void count_unparks(std::uint64_t n) {
    if (n != 0) add(slots_.local().unparks, n);
  }

  // Histogram feeds; call only when the caller's ObsTimer was armed (the
  // locks guard on it), so a disabled run never touches these lines — nor
  // allocates the histogram block.
  void record_read_acquire(std::uint64_t d) {
    local_histograms().read_acquire.add(d);
  }
  void record_write_acquire(std::uint64_t d) {
    local_histograms().write_acquire.add(d);
  }
  void record_writer_wait(std::uint64_t d) {
    local_histograms().writer_wait.add(d);
  }
  void record_timed_acquire(std::uint64_t d) {
    local_histograms().timed_acquire.add(d);
  }
  void record_opt_read(std::uint64_t d) {
    local_histograms().opt_read.add(d);
  }

  // Aggregate across threads.  Not linearizable with respect to concurrent
  // updates (relaxed loads of live counters); call at quiescence for exact
  // numbers.
  LockStatsSnapshot snapshot() const {
    LockStatsSnapshot total;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_.slot(i);
      total.read_fast += s.read_fast.load(std::memory_order_relaxed);
      total.read_queued += s.read_queued.load(std::memory_order_relaxed);
      total.write_fast += s.write_fast.load(std::memory_order_relaxed);
      total.write_queued += s.write_queued.load(std::memory_order_relaxed);
      total.read_bias += s.read_bias.load(std::memory_order_relaxed);
      total.bias_revoke += s.bias_revoke.load(std::memory_order_relaxed);
      total.read_timeouts += s.read_timeouts.load(std::memory_order_relaxed);
      total.write_timeouts +=
          s.write_timeouts.load(std::memory_order_relaxed);
      total.read_abandons += s.read_abandons.load(std::memory_order_relaxed);
      total.write_abandons +=
          s.write_abandons.load(std::memory_order_relaxed);
      total.revoke_timeouts +=
          s.revoke_timeouts.load(std::memory_order_relaxed);
      total.opt_reads += s.opt_reads.load(std::memory_order_relaxed);
      total.opt_validation_failures +=
          s.opt_validation_failures.load(std::memory_order_relaxed);
      total.opt_fallbacks += s.opt_fallbacks.load(std::memory_order_relaxed);
      total.combined_ops += s.combined_ops.load(std::memory_order_relaxed);
      total.combine_batches +=
          s.combine_batches.load(std::memory_order_relaxed);
      total.combine_handoffs_saved +=
          s.combine_handoffs_saved.load(std::memory_order_relaxed);
      total.parks += s.parks.load(std::memory_order_relaxed);
      total.unparks += s.unparks.load(std::memory_order_relaxed);
      total.spurious_wakes +=
          s.spurious_wakes.load(std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < hist_.size(); ++i) {
      const Histograms* h = hist_.find(i);
      if (h == nullptr) break;  // no block: empty histograms
      const Histograms& s = *h;
      s.read_acquire.snapshot_into(total.read_acquire);
      s.write_acquire.snapshot_into(total.write_acquire);
      s.writer_wait.snapshot_into(total.writer_wait);
      s.timed_acquire.snapshot_into(total.timed_acquire);
      s.opt_read.snapshot_into(total.opt_read);
      s.park_wait.snapshot_into(total.park_wait);
    }
    return total;
  }

  // Zero every slot; quiescent-only (concurrent increments would interleave
  // with the clearing stores).  The harness prefers baseline subtraction
  // (factory.hpp reset_stats), which needs no quiescence beyond snapshot's.
  void reset() {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_.slot(i);
      s.read_fast.store(0, std::memory_order_relaxed);
      s.read_queued.store(0, std::memory_order_relaxed);
      s.write_fast.store(0, std::memory_order_relaxed);
      s.write_queued.store(0, std::memory_order_relaxed);
      s.read_bias.store(0, std::memory_order_relaxed);
      s.bias_revoke.store(0, std::memory_order_relaxed);
      s.read_timeouts.store(0, std::memory_order_relaxed);
      s.write_timeouts.store(0, std::memory_order_relaxed);
      s.read_abandons.store(0, std::memory_order_relaxed);
      s.write_abandons.store(0, std::memory_order_relaxed);
      s.revoke_timeouts.store(0, std::memory_order_relaxed);
      s.opt_reads.store(0, std::memory_order_relaxed);
      s.opt_validation_failures.store(0, std::memory_order_relaxed);
      s.opt_fallbacks.store(0, std::memory_order_relaxed);
      s.combined_ops.store(0, std::memory_order_relaxed);
      s.combine_batches.store(0, std::memory_order_relaxed);
      s.combine_handoffs_saved.store(0, std::memory_order_relaxed);
      s.parks.store(0, std::memory_order_relaxed);
      s.unparks.store(0, std::memory_order_relaxed);
      s.spurious_wakes.store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < hist_.size(); ++i) {
      Histograms* h = hist_.find(i);
      if (h == nullptr) break;  // no block: nothing recorded
      h->read_acquire.reset();
      h->write_acquire.reset();
      h->writer_wait.reset();
      h->timed_acquire.reset();
      h->opt_read.reset();
      h->park_wait.reset();
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> read_fast{0};
    std::atomic<std::uint64_t> read_queued{0};
    std::atomic<std::uint64_t> write_fast{0};
    std::atomic<std::uint64_t> write_queued{0};
    std::atomic<std::uint64_t> read_bias{0};
    std::atomic<std::uint64_t> bias_revoke{0};
    std::atomic<std::uint64_t> read_timeouts{0};
    std::atomic<std::uint64_t> write_timeouts{0};
    std::atomic<std::uint64_t> read_abandons{0};
    std::atomic<std::uint64_t> write_abandons{0};
    std::atomic<std::uint64_t> revoke_timeouts{0};
    std::atomic<std::uint64_t> opt_reads{0};
    std::atomic<std::uint64_t> opt_validation_failures{0};
    std::atomic<std::uint64_t> opt_fallbacks{0};
    std::atomic<std::uint64_t> combined_ops{0};
    std::atomic<std::uint64_t> combine_batches{0};
    std::atomic<std::uint64_t> combine_handoffs_saved{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
    std::atomic<std::uint64_t> spurious_wakes{0};
  };

  // One thread's histograms; lives in the lazily published block.
  struct Histograms {
    AtomicHistogram read_acquire;
    AtomicHistogram write_acquire;
    AtomicHistogram writer_wait;
    AtomicHistogram timed_acquire;
    AtomicHistogram opt_read;
    AtomicHistogram park_wait;
  };

  // Single-writer slot: a relaxed load+store increment cannot be lost and
  // avoids a lock-prefixed RMW on the acquisition hot path.
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  // The calling thread's histogram slot, publishing the block on first use.
  Histograms& local_histograms() { return hist_.local(); }

  PerThreadSlots<Slot> slots_;
  LazyPerThreadSlots<Histograms> hist_;
};

}  // namespace oll
