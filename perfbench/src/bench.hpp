// Closed-loop lock benchmark core: seeded op streams, the lock stacks the
// ledger compares, the worker loop with its correctness oracle, and the
// window runner that starts, pins, phases and joins the workers.
//
// Every stack is driven through the library's public functions only.  The
// worker loop is one template over (Traced, Stack), so the end-to-end run
// and every ledger stack execute the same harness code; the traced build of
// the loop additionally records spans.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/factory.hpp"
#include "locks/cohort_mcs_lock.hpp"
#include "locks/goll_lock.hpp"
#include "platform/cpu.hpp"
#include "platform/rng.hpp"
#include "platform/thread_id.hpp"
#include "snzi/csnzi.hpp"

namespace perfbench {

// Closed loop of three workers: nproc-1 on the 4-vCPU reference host, so
// one vCPU stays free for the OS and the harness (see BENCHMARK.md, "Noise").
inline constexpr std::uint32_t kWorkers = 3;
// Op streams are generated up front and cycled; a power of two.
inline constexpr std::uint32_t kStreamLen = 1u << 18;
// Think time between operations: iterations of a dependent multiply-add,
// about 0.3 us on the reference host on average.  Each op's count is drawn
// from the seed, uniform in [kThinkIters/2, 3*kThinkIters/2], so workers
// cannot phase-lock into a convoy; it is never calibrated, so every commit
// does identical work.
inline constexpr std::uint32_t kThinkIters = 165;
inline constexpr std::uint32_t kWriteBit = 1u << 31;
inline constexpr std::uint32_t kPathBitsPerLevel = 7;

// --- clock -----------------------------------------------------------------

inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::uint32_t write_per_mille = 0;
  std::uint32_t fanout = 1;
  std::uint32_t depth = 0;  // levels below the root; 0 = one lock
  oll::LockKind kind = oll::LockKind::kGoll;
  // Factory thread bound: the default (512) for the one-lock workloads;
  // kWorkers + 1 (4) for the many-lock index, whose per-thread stats slots
  // took 2.6 GiB at index_traversal.cpp's 64.
  std::uint32_t max_threads = 512;

  std::size_t nodes() const {
    std::size_t total = 1, level = 1;
    for (std::uint32_t l = 0; l < depth; ++l) total += (level *= fanout);
    return total;
  }
  // nodes[i] is internal iff i < inner().
  std::size_t inner() const { return depth == 0 ? 0 : nodes() - leaves(); }
  std::size_t leaves() const {
    std::size_t n = 1;
    for (std::uint32_t l = 0; l < depth; ++l) n *= fanout;
    return n;
  }
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"read_hot", 10, 1, 0, oll::LockKind::kGoll, 512},
      {"write_mix", 500, 1, 0, oll::LockKind::kGoll, 512},
      {"index_opt", 50, 8, 4, oll::LockKind::kOptBravoGoll, kWorkers + 1},
  };
  return w;
}

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// One operation: `code` is kWriteBit | node for a write, else a read whose
// root-to-leaf path takes kPathBitsPerLevel bits per level; `think` is the
// think-time iterations that follow it.
struct Op {
  std::uint32_t code = 0;
  std::uint32_t think = 0;
  bool operator==(const Op&) const = default;
};

struct Streams {
  std::vector<std::vector<Op>> ops;
  std::uint64_t checksum = 0;  // FNV-1a over every stream, in worker order
};

inline Streams make_streams(const Workload& wl, std::uint64_t seed) {
  Streams s;
  s.ops.resize(kWorkers);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xffu)) * 0x100000001b3ULL;
    }
  };
  const std::uint64_t nodes = wl.nodes();
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    oll::Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ULL + w + 1);
    auto& ops = s.ops[w];
    ops.resize(kStreamLen);
    for (Op& op : ops) {
      if (rng.bernoulli(wl.write_per_mille, 1000)) {
        op.code = kWriteBit | static_cast<std::uint32_t>(rng.next_below(nodes));
      } else {
        op.code = static_cast<std::uint32_t>(rng.next()) & (kWriteBit - 1);
      }
      op.think = kThinkIters / 2 +
                 static_cast<std::uint32_t>(rng.next_below(kThinkIters + 1));
      mix(op.code);
      mix(op.think);
    }
  }
  s.checksum = h;
  return s;
}

// --- data --------------------------------------------------------------------

// The protected record: 8 words, one cache line.  A write increments every
// word; a read checks they are all equal.  Atomics (relaxed) keep a broken
// lock's torn accesses well defined, so the oracle can count them.
struct alignas(64) Record {
  std::atomic<std::uint64_t> w[8] = {};
};

inline bool read_record(const Record& r) {
  const std::uint64_t v0 = r.w[0].load(std::memory_order_relaxed);
  bool same = true;
  for (int i = 1; i < 8; ++i) {
    same &= r.w[i].load(std::memory_order_relaxed) == v0;
  }
  return same;
}

inline void write_record(Record& r) {
  for (auto& word : r.w) {
    word.store(word.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

inline std::uint64_t think(std::uint64_t x, std::uint32_t iters) {
  for (std::uint32_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return x;
}

// --- lock stacks ---------------------------------------------------------------
//
// Each stack owns one lock per node.  kExclusive says the stack excludes
// writers from readers and from each other, so the oracle applies.

struct NoTicket {};

struct PessimisticOnly {
  bool optimistic() const { return false; }
  std::uint64_t opt_begin(std::size_t) { return oll::kInvalidOptStamp; }
  bool opt_validate(std::size_t, std::uint64_t) { return false; }
  std::uint32_t opt_retries() const { return 0; }
  void count_fallback(std::size_t) {}
};

// Harness floor: no lock at all.
struct NullStack : PessimisticOnly {
  static constexpr bool kExclusive = false;
  using Ticket = NoTicket;
  explicit NullStack(const Workload&) {}
  Ticket read_acquire(std::size_t) { return {}; }
  void read_release(std::size_t, Ticket) {}
  void write_acquire(std::size_t) {}
  void write_release(std::size_t) {}
  oll::LockStatsSnapshot stats() const { return {}; }
};

// Standalone C-SNZI as a reader-preference lock: readers arrive/depart,
// writers close_if_empty (GOLL's uncontended writer path) then open.
struct SnziStack : PessimisticOnly {
  static constexpr bool kExclusive = true;
  using Ticket = oll::CSnzi<>::Ticket;
  explicit SnziStack(const Workload& wl) {
    oll::CSnziOptions o;
    o.max_threads = wl.max_threads;
    for (std::size_t i = 0; i < wl.nodes(); ++i) {
      locks.push_back(std::make_unique<oll::CSnzi<>>(o));
    }
  }
  Ticket read_acquire(std::size_t i) {
    for (;;) {
      Ticket t = locks[i]->arrive();
      if (t.arrived()) return t;
      while (!locks[i]->query().open) oll::cpu_relax();
    }
  }
  void read_release(std::size_t i, Ticket t) { (void)locks[i]->depart(t); }
  void write_acquire(std::size_t i) {
    while (!locks[i]->close_if_empty()) oll::cpu_relax();
  }
  void write_release(std::size_t i) { locks[i]->open(); }
  // The ledger's ratios come from the factory rungs.
  oll::LockStatsSnapshot stats() const { return {}; }
  std::vector<std::unique_ptr<oll::CSnzi<>>> locks;
};

// Standalone metalock (GOLL's writer arbitration, default options): writers
// lock/unlock it, readers take nothing.
struct MetalockStack : PessimisticOnly {
  static constexpr bool kExclusive = false;
  using Ticket = NoTicket;
  explicit MetalockStack(const Workload& wl) {
    oll::MetalockOptions o;
    o.max_threads = wl.max_threads;
    for (std::size_t i = 0; i < wl.nodes(); ++i) {
      locks.push_back(std::make_unique<oll::Metalock<>>(o));
    }
  }
  Ticket read_acquire(std::size_t) { return {}; }
  void read_release(std::size_t, Ticket) {}
  void write_acquire(std::size_t i) { locks[i]->lock(); }
  void write_release(std::size_t i) { locks[i]->unlock(); }
  oll::LockStatsSnapshot stats() const { return {}; }
  std::vector<std::unique_ptr<oll::Metalock<>>> locks;
};

// The factory's options for a workload; the direct stack mirrors them.
inline oll::LockFactoryOptions factory_options(const Workload& wl) {
  oll::LockFactoryOptions o;
  o.max_threads = wl.max_threads;
  return o;
}

// GollLock<RealMemory> called directly, configured as the factory's kGoll.
struct GollDirectStack : PessimisticOnly {
  static constexpr bool kExclusive = true;
  using Ticket = NoTicket;
  explicit GollDirectStack(const Workload& wl) {
    const oll::LockFactoryOptions f = factory_options(wl);
    oll::GollOptions g;
    g.max_threads = f.max_threads;
    g.csnzi = f.csnzi;
    g.readers_coalesce_over_writers = f.readers_coalesce_over_writers;
    g.metalock = f.metalock;
    g.wait_strategy = f.wait_policy;
    g.combine = f.combine;
    g.combine_budget = f.combine_budget;
    for (std::size_t i = 0; i < wl.nodes(); ++i) {
      locks.push_back(std::make_unique<oll::GollLock<>>(g));
    }
  }
  Ticket read_acquire(std::size_t i) {
    locks[i]->lock_shared();
    return {};
  }
  void read_release(std::size_t i, Ticket) { locks[i]->unlock_shared(); }
  void write_acquire(std::size_t i) { locks[i]->lock(); }
  void write_release(std::size_t i) { locks[i]->unlock(); }
  oll::LockStatsSnapshot stats() const {
    oll::LockStatsSnapshot s;
    for (const auto& l : locks) s += l->stats();
    return s;
  }
  std::vector<std::unique_ptr<oll::GollLock<>>> locks;
};

// A factory kind through the type-erased AnyRwLock handle.
struct AnyStack {
  static constexpr bool kExclusive = true;
  using Ticket = NoTicket;
  AnyStack(const Workload& wl, oll::LockKind kind) {
    const oll::LockFactoryOptions o = factory_options(wl);
    for (std::size_t i = 0; i < wl.nodes(); ++i) {
      locks.push_back(oll::make_rwlock(kind, o));
    }
    opt = locks[0]->supports_optimistic();
    retries = locks[0]->opt_max_retries();
  }
  Ticket read_acquire(std::size_t i) {
    locks[i]->lock_shared();
    return {};
  }
  void read_release(std::size_t i, Ticket) { locks[i]->unlock_shared(); }
  void write_acquire(std::size_t i) { locks[i]->lock(); }
  void write_release(std::size_t i) { locks[i]->unlock(); }
  bool optimistic() const { return opt; }
  std::uint64_t opt_begin(std::size_t i) { return locks[i]->opt_read_begin(); }
  bool opt_validate(std::size_t i, std::uint64_t s) {
    return locks[i]->opt_read_validate(s);
  }
  std::uint32_t opt_retries() const { return retries; }
  // A traversal's give-up is charged to the root latch, whose retry budget
  // governed the loop (as in bench/index_traversal.cpp).
  void count_fallback(std::size_t i) { locks[i]->count_opt_fallback(); }
  oll::LockStatsSnapshot stats() const {
    oll::LockStatsSnapshot s;
    for (const auto& l : locks) s += l->stats();
    return s;
  }
  std::vector<std::unique_ptr<oll::AnyRwLock>> locks;
  bool opt = false;
  std::uint32_t retries = 0;
};

// --- latency histogram -------------------------------------------------------

// Log-linear buckets: exact below 128 ticks, then 64 sub-buckets per power
// of two (<1.6% wide).  Percentiles interpolate linearly inside a bucket.
class Histogram {
 public:
  static constexpr std::uint32_t kBuckets = 128 + 34 * 64;

  void add(std::uint64_t v) { ++counts_[index(v)]; ++n_; }

  Histogram& operator+=(const Histogram& o) {
    for (std::uint32_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    return *this;
  }

  // Value at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0.0;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && cum + c >= target) {
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static std::uint32_t index(std::uint64_t v) {
    if (v < 128) return static_cast<std::uint32_t>(v);
    std::uint32_t msb = 63u - static_cast<std::uint32_t>(__builtin_clzll(v));
    if (msb > 40) return kBuckets - 1;
    const std::uint32_t shift = msb - 6;
    return 128 + (msb - 7) * 64 +
           static_cast<std::uint32_t>((v >> shift) - 64);
  }
  static double lower(std::uint32_t i) {
    if (i < 128) return i;
    const std::uint32_t k = i - 128;
    const std::uint32_t shift = k / 64 + 1;
    return static_cast<double>((64 + k % 64)) * static_cast<double>(1ULL << shift);
  }
  static double width(std::uint32_t i) {
    return i < 128 ? 1.0 : static_cast<double>(1ULL << ((i - 128) / 64 + 1));
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t n_ = 0;
};

// --- spans ---------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kOp, kAcquire, kCs, kRelease, kThink, kTraversal, kLatch
};
inline constexpr const char* kSpanNames[] = {
    "op", "acquire", "cs", "release", "think", "traversal", "latch"};

// Parent by kind: acquire/cs/release/traversal are children of their op,
// latch of its traversal; think follows its op.  Spans of one op share `op`.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t op = 0;
  SpanKind kind = SpanKind::kOp;
  std::uint8_t level = 0;
};

// Spans one op can record: (retries + 2) traversals of (depth + 2) spans,
// plus op and think, stays below this for the library's default of 8
// optimistic retries and the index's depth of 4.
inline constexpr std::size_t kSpansPerOpMax = 128;

// Fixed-capacity in-memory span buffer, so recording never allocates inside
// the loop.  The traced loop records one op in `stride` (a power of two),
// and only in measured slices, so the kept spans sample the whole measured
// window; an op is recorded only while the buffer has room for all of it.
struct SpanBuf {
  std::vector<Span> spans;
  std::size_t cap = 0;
  std::uint32_t stride = 1;
  bool sample(std::uint32_t opid) const {
    return (opid & (stride - 1)) == 0 && spans.size() + kSpansPerOpMax <= cap;
  }
  void add(SpanKind k, std::uint64_t s, std::uint64_t e, std::uint32_t op,
           std::uint32_t level = 0) {
    if (spans.size() < cap) {
      spans.push_back({s, e, op, k, static_cast<std::uint8_t>(level)});
    }
  }
};

// --- worker loop ---------------------------------------------------------------

struct SliceOut {
  Histogram read, write;
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t read_ticks = 0, write_ticks = 0;
  // Time from the end of one op to the start of the next (its think loop
  // plus loop overhead), and the think iterations run in it: a gauge of the
  // host's speed that no lock code touches.
  std::uint64_t think_ticks = 0, think_iters = 0;
};

struct alignas(64) WorkerOut {
  std::vector<SliceOut> slices;  // [0] warm-up, [1..] measured
  std::uint64_t torn = 0;        // inconsistent records observed under lock
  std::uint64_t restarts = 0;    // optimistic descents restarted
  std::uint64_t fallbacks = 0;   // traversals that went pessimistic
  std::uint64_t sink = 0;
  SpanBuf spans;
};

struct Plan {
  double warmup_s = 0.0;
  std::uint32_t slices = 0;
  double slice_s = 0.0;
  std::size_t span_cap = 0;
  std::uint32_t span_stride = 1;  // record one op in this many (traced)
};

template <typename Stack>
struct Shared {
  Stack* stack = nullptr;
  std::vector<Record>* recs = nullptr;
  const Workload* wl = nullptr;
  const Streams* streams = nullptr;
  std::size_t inner = 0;  // wl->inner(), hoisted out of the loop
  std::vector<WorkerOut> out;
  alignas(64) std::atomic<int> phase{0};  // slice index; -1 = stop
  alignas(64) std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
};

inline std::size_t child_of(std::uint32_t fanout, std::size_t idx,
                            std::uint32_t path, std::uint32_t level) {
  return idx * fanout + 1 + (path >> (kPathBitsPerLevel * level)) % fanout;
}

// `rec` says whether this op records spans; it is constant false unless
// Traced, so the untraced loop carries no span code.
template <bool Traced, typename Stack>
void pessimistic_read(Shared<Stack>& sh, WorkerOut& out, std::uint32_t path,
                      std::uint32_t opid, bool rec) {
  rec = Traced && rec;
  Stack& st = *sh.stack;
  const Workload& wl = *sh.wl;
  std::vector<Record>& recs = *sh.recs;
  std::uint64_t held_since = rec ? ticks() : 0;
  std::size_t idx = 0;
  std::uint32_t level = 0;
  auto t = st.read_acquire(0);
  for (;;) {
    if (!read_record(recs[idx]) && Stack::kExclusive) ++out.torn;
    if (idx >= sh.inner) {
      st.read_release(idx, t);
      if (rec) out.spans.add(SpanKind::kLatch, held_since, ticks(), opid, level);
      return;
    }
    const std::size_t next = child_of(wl.fanout, idx, path, level);
    const std::uint64_t child_since = rec ? ticks() : 0;
    auto tn = st.read_acquire(next);
    st.read_release(idx, t);
    if (rec) out.spans.add(SpanKind::kLatch, held_since, ticks(), opid, level);
    held_since = child_since;
    t = tn;
    idx = next;
    ++level;
  }
}

// One optimistic root-to-leaf descent; false on any validation failure.
// A validated window that saw an inconsistent record is a torn read the
// version protocol missed: counted, not fatal.
template <bool Traced, typename Stack>
bool optimistic_descent(Shared<Stack>& sh, WorkerOut& out, std::uint32_t path,
                        std::uint32_t opid, bool rec) {
  rec = Traced && rec;
  Stack& st = *sh.stack;
  const Workload& wl = *sh.wl;
  std::size_t idx = 0;
  std::uint32_t level = 0;
  for (;;) {
    const std::uint64_t b = rec ? ticks() : 0;
    const std::uint64_t stamp = st.opt_begin(idx);
    if (stamp == oll::kInvalidOptStamp) return false;
    const bool consistent = read_record((*sh.recs)[idx]);
    if (!st.opt_validate(idx, stamp)) return false;
    if (rec) out.spans.add(SpanKind::kLatch, b, ticks(), opid, level);
    if (!consistent) ++out.torn;
    if (idx >= sh.inner) return true;
    idx = child_of(wl.fanout, idx, path, level++);
  }
}

template <bool Traced, typename Stack>
void do_read(Shared<Stack>& sh, WorkerOut& out, std::uint32_t path,
             std::uint32_t opid, bool rec) {
  rec = Traced && rec;
  Stack& st = *sh.stack;
  if (st.optimistic()) {
    const std::uint32_t retries = st.opt_retries();
    for (std::uint32_t attempt = 0; attempt <= retries; ++attempt) {
      if (attempt != 0) ++out.restarts;
      const std::uint64_t b = rec ? ticks() : 0;
      const bool ok = optimistic_descent<Traced>(sh, out, path, opid, rec);
      if (rec) out.spans.add(SpanKind::kTraversal, b, ticks(), opid, attempt);
      if (ok) return;
    }
    st.count_fallback(0);
    ++out.fallbacks;
  }
  const std::uint64_t b = rec ? ticks() : 0;
  pessimistic_read<Traced>(sh, out, path, opid, rec);
  if (rec) out.spans.add(SpanKind::kTraversal, b, ticks(), opid, 255);
}

template <bool Traced, typename Stack>
void do_write(Shared<Stack>& sh, WorkerOut& out, std::size_t node,
              std::uint32_t opid, bool rec) {
  rec = Traced && rec;
  Stack& st = *sh.stack;
  const std::uint64_t a0 = rec ? ticks() : 0;
  st.write_acquire(node);
  const std::uint64_t a1 = rec ? ticks() : 0;
  write_record((*sh.recs)[node]);
  const std::uint64_t a2 = rec ? ticks() : 0;
  st.write_release(node);
  if (rec) {
    const std::uint64_t a3 = ticks();
    out.spans.add(SpanKind::kAcquire, a0, a1, opid);
    out.spans.add(SpanKind::kCs, a1, a2, opid);
    out.spans.add(SpanKind::kRelease, a2, a3, opid);
  }
}

template <bool Traced, typename Stack>
void worker_loop(Shared<Stack>& sh, std::uint32_t w) {
  WorkerOut& out = sh.out[w];
  const Op* ops = sh.streams->ops[w].data();
  const std::uint32_t node_mask = kWriteBit - 1;
  std::uint64_t x = w + 1;
  std::uint32_t pos = 0;
  std::uint64_t prev_end = 0;  // t1 of the previous op
  std::uint32_t prev_think = 0;
  for (std::uint32_t opid = 0;; ++opid) {
    const int p = sh.phase.load(std::memory_order_relaxed);
    if (p < 0) break;
    SliceOut& sl = out.slices[static_cast<std::size_t>(p)];
    const Op op = ops[pos];
    pos = (pos + 1) & (kStreamLen - 1);
    // Spans sample the measured slices only, never the warm-up.
    const bool rec = Traced && p > 0 && out.spans.sample(opid);
    const std::uint64_t t0 = ticks();
    if (prev_end != 0) {
      sl.think_ticks += t0 - prev_end;
      sl.think_iters += prev_think;
    }
    std::uint64_t t1;
    if ((op.code & kWriteBit) != 0) {
      do_write<Traced>(sh, out, op.code & node_mask, opid, rec);
      t1 = ticks();
      sl.write.add(t1 - t0);
      sl.write_ticks += t1 - t0;
      ++sl.writes;
    } else {
      do_read<Traced>(sh, out, op.code, opid, rec);
      t1 = ticks();
      sl.read.add(t1 - t0);
      sl.read_ticks += t1 - t0;
      ++sl.reads;
    }
    prev_end = t1;
    prev_think = op.think;
    x = think(x, op.think);
    if (rec) {
      out.spans.add(SpanKind::kOp, t0, t1, opid);
      out.spans.add(SpanKind::kThink, t1, ticks(), opid);
    }
  }
  out.sink = x;
}

// --- window runner ---------------------------------------------------------------

inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

inline bool pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// A thread created already bound to `cpu` (the affinity is part of its
// creation attributes, so it never runs on the creator's CPU first); an
// unpinned thread where affinity is refused or cpu < 0.  Joins on
// destruction.
class PinnedThread {
 public:
  PinnedThread(int cpu, std::function<void()> fn) : fn_(std::move(fn)) {
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    bool pin = false;
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      pin = pthread_attr_setaffinity_np(&attr, sizeof(set), &set) == 0;
    }
    int rc = pthread_create(&t_, &attr, &entry, this);
    pthread_attr_destroy(&attr);
    if (rc != 0 && pin) {
      pin = false;
      rc = pthread_create(&t_, nullptr, &entry, this);
    }
    if (rc != 0) throw std::system_error(rc, std::generic_category(), "pthread_create");
    pinned_ = pin;
  }
  ~PinnedThread() { pthread_join(t_, nullptr); }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

  bool pinned() const { return pinned_; }

 private:
  static void* entry(void* self) {
    static_cast<PinnedThread*>(self)->fn_();
    return nullptr;
  }
  std::function<void()> fn_;
  pthread_t t_{};
  bool pinned_ = false;
};

// Process-wide clocks sampled at each phase boundary by the main thread.
struct Boundary {
  double wall_s = 0;
  double cpu_s = 0;    // process user+system time
  double steal_s = 0;  // host steal time summed over all CPUs
  std::uint64_t tsc = 0;
};

inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Host steal time from the aggregate "cpu" line of /proc/stat; 0 where
// the file is missing (non-Linux).
inline double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / hz : 0.0;
}

inline Boundary sample_boundary() {
  Boundary b;
  b.steal_s = host_steal_s();
  b.cpu_s = process_cpu_s();
  b.wall_s = now_s();
  b.tsc = ticks();
  return b;
}

struct WindowResult {
  double start_s = 0;  // spawn -> every worker pinned and ready
  std::vector<Boundary> marks;  // marks[s] begins measured slice s+1
  std::vector<WorkerOut> workers;
  bool pinned = true;

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) {
      for (const auto& s : w.slices) n += s.reads + s.writes;
    }
    return n;
  }
  std::uint64_t writes() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) {
      for (const auto& s : w.slices) n += s.writes;
    }
    return n;
  }
  // Merged measured slice s (1-based).
  SliceOut slice(std::size_t s) const {
    SliceOut m;
    for (const auto& w : workers) {
      const SliceOut& x = w.slices[s];
      m.read += x.read;
      m.write += x.write;
      m.reads += x.reads;
      m.writes += x.writes;
      m.read_ticks += x.read_ticks;
      m.write_ticks += x.write_ticks;
      m.think_ticks += x.think_ticks;
      m.think_iters += x.think_iters;
    }
    return m;
  }
  double ticks_per_ns() const {
    const Boundary& a = marks.front();
    const Boundary& b = marks.back();
    return static_cast<double>(b.tsc - a.tsc) / ((b.wall_s - a.wall_s) * 1e9);
  }
};

// Start kWorkers pinned workers on `stack`, run the plan's warm-up and
// measured slices, stop and join them.  `setup_began` is the now_s() taken
// before the caller built the stack, so start_s covers the whole set-up.
template <bool Traced, typename Stack>
WindowResult run_window(Stack& stack, std::vector<Record>& recs,
                        const Workload& wl, const Streams& streams,
                        const std::vector<int>& worker_cpus, const Plan& plan,
                        double setup_began) {
  Shared<Stack> sh;
  sh.stack = &stack;
  sh.recs = &recs;
  sh.wl = &wl;
  sh.streams = &streams;
  sh.inner = wl.inner();
  sh.out.resize(kWorkers);
  for (auto& o : sh.out) {
    o.slices.resize(plan.slices + 1);
    if constexpr (Traced) {
      o.spans.cap = plan.span_cap;
      o.spans.stride = plan.span_stride;
      o.spans.spans.reserve(plan.span_cap);
    }
  }

  std::vector<std::unique_ptr<PinnedThread>> threads;
  try {
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      const int cpu = w < worker_cpus.size() ? worker_cpus[w] : -1;
      threads.push_back(std::make_unique<PinnedThread>(cpu, [&sh, w] {
        oll::ScopedThreadIndex index(w);
        sh.ready.fetch_add(1, std::memory_order_acq_rel);
        while (!sh.go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        worker_loop<Traced>(sh, w);
      }));
    }
  } catch (...) {
    // Release the workers already started so destroying them can join.
    sh.phase.store(-1, std::memory_order_relaxed);
    sh.go.store(true, std::memory_order_release);
    throw;
  }
  while (sh.ready.load(std::memory_order_acquire) != kWorkers) {
    std::this_thread::yield();
  }
  WindowResult r;
  r.start_s = now_s() - setup_began;
  sh.go.store(true, std::memory_order_release);
  auto sleep = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep(plan.warmup_s);
  for (std::uint32_t s = 1; s <= plan.slices; ++s) {
    r.marks.push_back(sample_boundary());
    sh.phase.store(static_cast<int>(s), std::memory_order_relaxed);
    sleep(plan.slice_s);
  }
  r.marks.push_back(sample_boundary());
  sh.phase.store(-1, std::memory_order_relaxed);
  for (const auto& t : threads) r.pinned &= t->pinned();
  threads.clear();  // joins
  r.workers = std::move(sh.out);
  return r;
}

// Oracle over the final state: every record's words agree, and their sum
// equals the writes that completed.  Returns the number of failures
// (inconsistent records plus lost or phantom updates).
inline std::uint64_t final_state_failures(const std::vector<Record>& recs,
                                          std::uint64_t writes) {
  std::uint64_t bad = 0, sum = 0;
  for (const Record& r : recs) {
    if (!read_record(r)) ++bad;
    sum += r.w[0].load(std::memory_order_relaxed);
  }
  return bad + (sum > writes ? sum - writes : writes - sum);
}

}  // namespace perfbench
