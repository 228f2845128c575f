#include "harness/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "platform/assert.hpp"
#include "platform/lock_registry.hpp"
#include "platform/park.hpp"
#include "platform/thread_id.hpp"
#include "platform/time.hpp"
#include "platform/trace.hpp"

namespace oll::bench {

Watchdog::Watchdog(AnyRwLock& lock, const WatchdogOptions& opts,
                   std::uint32_t workers)
    : lock_(lock), opts_(opts), slots_(workers) {}

Watchdog::~Watchdog() { stop(); }

void Watchdog::begin_acquire(std::uint32_t worker, bool write) {
  OLL_DCHECK(worker < slots_.size());
  Slot& s = slots_[worker];
  s.is_write.store(write ? 1 : 0, std::memory_order_relaxed);
  // Key into the park census plus the parked-time baseline, so the
  // monitor can charge only runnable (non-parked) wait against the
  // threshold.
  const std::uint32_t tid = this_thread_index();
  s.tid.store(tid, std::memory_order_relaxed);
  s.parked_base_ns.store(park_thread_state(tid).cum_parked_ns,
                         std::memory_order_relaxed);
  // now_ns() is monotonic-from-epoch and never 0 in practice; 0 stays the
  // "not acquiring" sentinel.
  s.start_ns.store(now_ns(), std::memory_order_relaxed);
}

void Watchdog::end_acquire(std::uint32_t worker) {
  OLL_DCHECK(worker < slots_.size());
  slots_[worker].start_ns.store(0, std::memory_order_relaxed);
}

void Watchdog::start() {
  if (running_) return;
  // Arm the contention census (platform/lock_registry.hpp) so an incident
  // dump can name the lock's holder and queue, not just the stuck worker.
  // Refcounted: coexists with the telemetry exporter.
  registry_census_enable();
  registry_set_coarse_now(now_ns());
  stop_.store(false, std::memory_order_relaxed);
  monitor_ = std::thread([this] { monitor_loop(); });
  running_ = true;
}

void Watchdog::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  monitor_.join();
  registry_census_disable();
  running_ = false;
}

std::uint64_t Watchdog::threshold_ns() const {
  std::uint64_t t = opts_.floor_ns;
  if (opts_.use_histogram) {
    // Concurrent snapshot is approximate (relaxed counters) — fine for a
    // threshold.  Unit: wall ns whenever latency timing runs in real mode.
    const LockStatsSnapshot s = lock_.stats();
    if (s.writer_wait.count >= opts_.min_histogram_count) {
      const double p99 = s.writer_wait.percentile(99.0);
      t = std::max<std::uint64_t>(
          t, static_cast<std::uint64_t>(p99 * opts_.p99_multiplier));
    }
  }
  return t;
}

Watchdog::ParkView Watchdog::park_view(const Slot& slot, std::uint64_t begin,
                                       std::uint64_t now) const {
  ParkView pv;
  const std::uint32_t tid = slot.tid.load(std::memory_order_relaxed);
  if (tid == kNoTid) return pv;
  const ParkThreadState ps = park_thread_state(tid);
  // Completed parks since the acquisition began (cum counter delta)...
  const std::uint64_t base = slot.parked_base_ns.load(std::memory_order_relaxed);
  if (ps.cum_parked_ns > base) pv.parked_ns = ps.cum_parked_ns - base;
  // ...plus the in-progress park, which cum does not yet include.
  if (ps.parked_since_ns != 0) {
    pv.parked_now = true;
    if (now > ps.parked_since_ns) pv.parked_ns += now - ps.parked_since_ns;
    pv.past_deadline =
        ps.deadline_ns != 0 &&
        now > ps.deadline_ns + opts_.park_deadline_grace_ns;
  }
  // A park that straddles the acquisition start charges pre-acquisition
  // sleep too; harmless — it only makes the watchdog more lenient, and
  // only for the first park of the acquisition.
  if (pv.parked_ns > now - begin) pv.parked_ns = now - begin;
  return pv;
}

void Watchdog::dump_incident(std::uint32_t worker, const Slot& slot,
                             std::uint64_t waited_ns,
                             std::uint64_t threshold, const ParkView& pv) {
  const LockStatsSnapshot s = lock_.stats();
  std::fprintf(stderr,
               "[watchdog] worker %u stuck in %s acquisition for %.1f ms "
               "(runnable %.1f ms, parked %.1f ms; threshold %.1f ms%s)\n",
               worker,
               slot.is_write.load(std::memory_order_relaxed) != 0 ? "write"
                                                                  : "read",
               static_cast<double>(waited_ns) * 1e-6,
               static_cast<double>(waited_ns - pv.parked_ns) * 1e-6,
               static_cast<double>(pv.parked_ns) * 1e-6,
               static_cast<double>(threshold) * 1e-6,
               pv.past_deadline ? "; PARKED PAST DEADLINE" : "");
  {
    const ParkStats ps = park_stats();
    std::fprintf(stderr,
                 "[watchdog]   park census: %u threads parked now; parks=%"
                 PRIu64 " unparks=%" PRIu64 " spurious=%" PRIu64
                 " rearm_recoveries=%" PRIu64 "\n",
                 parked_thread_count(), ps.parks, ps.unparks,
                 ps.spurious_wakes, ps.rearm_recoveries);
  }
  std::fprintf(stderr,
               "[watchdog]   lock state: reads=%" PRIu64 " (fast=%" PRIu64
               " queued=%" PRIu64 " bias=%" PRIu64 ") writes=%" PRIu64
               " (fast=%" PRIu64 " queued=%" PRIu64 ")\n",
               s.reads(), s.read_fast, s.read_queued, s.read_bias, s.writes(),
               s.write_fast, s.write_queued);
  std::fprintf(stderr,
               "[watchdog]   timeouts: read=%" PRIu64 " write=%" PRIu64
               " abandons: read=%" PRIu64 " write=%" PRIu64
               " revoke_timeouts=%" PRIu64 " bias_revokes=%" PRIu64 "\n",
               s.read_timeouts, s.write_timeouts, s.read_abandons,
               s.write_abandons, s.revoke_timeouts, s.bias_revoke);
  // In-flight acquisitions across all workers: the closest portable proxy
  // for queue occupancy (the thirteen lock shapes have no common
  // introspection surface).
  std::uint32_t in_read = 0;
  std::uint32_t in_write = 0;
  for (const Slot& other : slots_) {
    if (other.start_ns.load(std::memory_order_relaxed) == 0) continue;
    if (other.is_write.load(std::memory_order_relaxed) != 0) {
      ++in_write;
    } else {
      ++in_read;
    }
  }
  std::fprintf(stderr,
               "[watchdog]   in-flight acquisitions: %u readers, %u writers "
               "(of %zu workers)\n",
               in_read, in_write, slots_.size());
  // Holder/waiter census (platform/lock_registry.hpp): names the write
  // holder's dense thread index and the longest waiter — the attribution
  // the per-worker slots above cannot provide.
  if (registry_compiled_in() && lock_.census() != nullptr) {
    const CensusSnapshot c = lock_.census()->snapshot(now_ns());
    char holder[32];
    if (c.write_held && c.writer_tid != kNoCensusTid) {
      std::snprintf(holder, sizeof(holder), "tid %u (write)", c.writer_tid);
    } else if (c.write_held) {
      std::snprintf(holder, sizeof(holder), "writer (tid unknown)");
    } else if (c.holding_readers != 0) {
      std::snprintf(holder, sizeof(holder), "%u readers", c.holding_readers);
    } else {
      std::snprintf(holder, sizeof(holder), "none observed");
    }
    std::fprintf(stderr,
                 "[watchdog]   census: holder=%s queue_depth=%u "
                 "(waiting readers=%u writers=%u)\n",
                 holder, c.queue_depth(), c.waiting_readers,
                 c.waiting_writers);
    if (c.longest_waiter_tid != kNoCensusTid) {
      std::fprintf(stderr,
                   "[watchdog]   census: longest waiter tid %u, %.1f ms "
                   "(coarse), site id %u\n",
                   c.longest_waiter_tid,
                   static_cast<double>(c.longest_wait_ns) * 1e-6,
                   c.longest_waiter_site);
    }
  }
  if (trace_events_enabled()) {
    // Destructive drain: diagnostics of last resort beat preserving rings.
    const TraceDump dump = trace_drain();
    const std::size_t n = dump.records.size();
    const std::size_t first =
        n > opts_.max_trace_records ? n - opts_.max_trace_records : 0;
    std::fprintf(stderr,
                 "[watchdog]   trace ring tail (%zu of %zu records, %" PRIu64
                 " dropped to wrap):\n",
                 n - first, n, dump.dropped);
    for (std::size_t i = first; i < n; ++i) {
      const TraceRecord& r = dump.records[i];
      std::fprintf(stderr, "[watchdog]     ts=%" PRIu64 " tid=%u %s obj=%p\n",
                   r.ts, r.tid, trace_event_name(r.type), r.obj);
    }
  } else {
    std::fprintf(stderr,
                 "[watchdog]   (event tracing not armed; rerun with --trace "
                 "for ring dumps)\n");
  }
}

void Watchdog::monitor_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.poll_interval_ms));
    if (incidents_.load(std::memory_order_relaxed) >= opts_.max_incidents) {
      continue;  // keep draining time until stop(); no more dumps
    }
    const std::uint64_t threshold = threshold_ns();
    const std::uint64_t now = now_ns();
    // Keep the census coarse clock fresh so waiter ages resolve to the
    // poll interval even when no telemetry exporter is running.
    registry_set_coarse_now(now);
    for (std::uint32_t w = 0; w < slots_.size(); ++w) {
      Slot& slot = slots_[w];
      const std::uint64_t begin = slot.start_ns.load(std::memory_order_relaxed);
      if (begin == 0 || now <= begin) continue;
      const std::uint64_t waited = now - begin;
      if (waited < threshold) continue;
      const ParkView pv = park_view(slot, begin, now);
      // Only runnable (non-parked) wait counts against the threshold: a
      // censused sleeper is healthy however long it sleeps.  The one
      // exception is a waiter the substrate failed — parked past its own
      // deadline — which is always an incident.
      if (!pv.past_deadline && waited - pv.parked_ns < threshold) continue;
      if (slot.reported.load(std::memory_order_relaxed) == begin) continue;
      slot.reported.store(begin, std::memory_order_relaxed);
      incidents_.fetch_add(1, std::memory_order_relaxed);
      dump_incident(w, slot, waited, threshold, pv);
    }
  }
}

}  // namespace oll::bench
