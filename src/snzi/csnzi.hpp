// C-SNZI: closable scalable nonzero indicator (paper §2, Figure 2).
//
// A SNZI object lets threads Arrive and Depart and answers only "is there a
// surplus of arrivals?".  The closable variant adds Open/Close so a writer
// can atomically forbid further arrivals — the key to the OLL reader-writer
// locks: readers Arrive/Depart, writers Close/Open.
//
// Implementation follows the simplified Lev et al. algorithm reproduced in
// Figure 2 of the paper:
//
//   * The root is a single CAS-able 64-bit word holding the surplus and the
//     OPEN/CLOSED bit.  Per the tuning note in §5.1, the root keeps TWO
//     counters: one for arrivals made directly at the root and one for
//     arrivals propagated up from the tree.  This both implements the
//     root-contention optimization the authors used and provides exactly the
//     information needed for write-upgrade (§3.2.1).
//   * Below the root sits an optional tree of counter nodes.  An Arrive at a
//     node only touches its parent when the node's count might change from
//     zero ("first arrival"), and symmetrically for Depart ("last
//     departure"), so under heavy read contention most arrivals stay on a
//     leaf the arriving thread effectively owns.
//   * A thread Arrives at the root unless it keeps losing the root CAS or
//     sees that other threads are already using the tree
//     (ShouldArriveAtTree, §5.1); the tree is allocated lazily on first use
//     so uncontended C-SNZIs pay no space (§2.2).
//   * Threads are mapped onto leaves by a topology-derived LeafMap
//     (platform/topology.hpp): SMT siblings sharing an L1 share a leaf by
//     default, so the leaf line ping-pongs only between nearly-free
//     neighbours.  The seed's static `leaf_shift` survives as an override.
//   * Sticky arrivals: once an adaptive thread has switched to the tree it
//     goes straight to its cached leaf for the next `sticky_arrivals`
//     arrivals without loading the root word at all.  This is legal by the
//     §2.2 linearization rule — a tree arrival fails only at a CLOSED root
//     with zero surplus, a condition tree_arrive() itself detects when the
//     leaf's first arrival propagates — so the root check was always
//     advisory on this path.  Hysteresis: a sticky window ends as soon as
//     it has propagated to the root more than `sticky_decay_propagations`
//     times.  The leaf keeps draining (a thread with a private leaf drains
//     it on every depart), so each tree arrival pays a leaf RMW on top of
//     the root RMW a direct arrival pays.  The thread decays to direct
//     arrivals and holds there for its next `sticky_arrivals` arrivals,
//     ignoring the root's tree-surplus hint (other threads' tree arrivals
//     say nothing about this thread's leaf); only losing the root CAS
//     `root_cas_fail_threshold` times moves a held thread back to the
//     tree.  At read saturation the leaf never drains and the window
//     re-arms for free, but only `sticky_rearm_windows` times in a row:
//     the next re-arm re-reads the root and refuses to re-arm if the
//     C-SNZI has been closed.  Without that bound, sticky readers sharing
//     a hot leaf could keep arriving forever after Close — each success
//     keeps the leaf nonzero for the next — and a writer waiting for the
//     surplus to drain would starve.  The periodic read (one load per
//     `sticky_rearm_windows * sticky_arrivals` arrivals, of a line that
//     stays in shared state) caps a closing writer's wait at one window
//     burst per reader while keeping steady-state root traffic ~zero.
//
// Linearization subtlety faithfully preserved (§2.2): an arrival through the
// tree may increment a leaf whose count is nonzero without touching the
// root, even if a Close has happened in between; such an Arrive linearizes
// at the earlier point where the thread saw the C-SNZI open.  Consequently a
// tree arrival propagating to the root only fails when the root is CLOSED
// with zero total surplus.  Sticky arrivals lean on exactly this rule: the
// "saw the C-SNZI open" point is the root access that armed the window.
//
// Root width: the root stays one pointer-width word, as in the paper; a
// 16-byte versioned root measured up to 2x slower on real cores (DESIGN.md
// §15.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>

#include "platform/assert.hpp"
#include "platform/cache_line.hpp"
#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/thread_id.hpp"
#include "platform/topology.hpp"
#include "platform/trace.hpp"
#include "snzi/csnzi_stats.hpp"

namespace oll {

// Where Arrive should try first; kAdaptive is the paper's policy, the other
// two exist for the ablation benchmarks.
enum class ArrivalPolicy : std::uint8_t {
  kAdaptive,    // root until contention is observed (§5.1)
  kAlwaysRoot,  // degenerate: central counter
  kAlwaysTree,  // always pay the tree path
};

struct CSnziOptions {
  // Number of leaf counter nodes (rounded up to a power of two).  64 leaves
  // comfortably spread 256 threads, matching the evaluation machine.
  std::uint32_t leaves = 64;
  // Levels of counter nodes below the root.  1 reproduces Figure 2's
  // root+leaves shape; deeper trees trade latency for less root traffic.
  std::uint32_t levels = 1;
  // Fan-in of internal levels when levels > 1.
  std::uint32_t fanout = 8;
  // Consecutive root-CAS failures before switching to the tree.
  std::uint32_t root_cas_fail_threshold = 2;
  // Allocate the tree on first tree arrival instead of up front (§2.2).
  bool lazy_tree = true;
  ArrivalPolicy policy = ArrivalPolicy::kAdaptive;
  // Static fallback locality: leaf index = (thread_index >> leaf_shift)
  // mod leaves.  Only used when topology_mapping resolves to kStaticShift;
  // setting it nonzero under kAuto selects kStaticShift for backward
  // compatibility.  normalize() clamps it so the shift cannot collapse
  // every registerable thread onto leaf 0 (unless leaves == 1, which is an
  // explicit request for a single leaf).
  std::uint32_t leaf_shift = 0;
  // How thread indices map onto leaves.  kAuto resolves to kSmtCluster on
  // the topology below (or kStaticShift when leaf_shift was set).
  LeafMapping topology_mapping = LeafMapping::kAuto;
  // Topology the mapping is derived from; nullptr means Topology::system().
  // The simulator passes its synthetic T5440 shape instead.  Must outlive
  // the C-SNZI.
  const Topology* topology = nullptr;
  // Sticky window length: tree arrivals made without a root read after an
  // adaptive switch to the tree.  Also the length of the direct hold after
  // a decay.  0 disables the sticky fast path (every arrival re-reads the
  // root, the seed behaviour).
  std::uint32_t sticky_arrivals = 64;
  // Hysteresis: end a sticky window and hold direct as soon as it has
  // propagated to the root more than this many times (the leaf keeps
  // draining, so tree arrivals are paying root traffic anyway).
  std::uint32_t sticky_decay_propagations = 8;
  // Consecutive root-free window re-arms allowed before a re-arm must
  // re-read the root word and drop the window if the C-SNZI was closed.
  // Bounds how long sticky readers on a shared hot leaf can keep a closing
  // writer waiting (see file comment); 0 checks the root on every re-arm.
  std::uint32_t sticky_rearm_windows = 4;
  // Upper bound on dense thread indices that will use this instance; sizes
  // the per-thread state array.  0 means kMaxThreads; locks plumb their own
  // max_threads through.
  std::uint32_t max_threads = 0;
};

// Result of Query: (surplus != 0, state == OPEN).
struct SnziQuery {
  bool nonzero;
  bool open;
};

template <typename M = RealMemory>
class CSnzi {
 public:
  // --- root word layout -------------------------------------------------
  // bits [0, 28)   direct-arrival surplus
  // bits [28, 56)  tree-propagated surplus
  // bit  56        OPEN flag
  static constexpr std::uint64_t kDirectShift = 0;
  static constexpr std::uint64_t kTreeShift = 28;
  static constexpr std::uint64_t kCountMask = (1ULL << 28) - 1;
  static constexpr std::uint64_t kOpenBit = 1ULL << 56;
  static constexpr std::uint64_t kDirectOne = 1ULL << kDirectShift;
  static constexpr std::uint64_t kTreeOne = 1ULL << kTreeShift;

  static constexpr std::uint64_t direct_count(std::uint64_t w) noexcept {
    return (w >> kDirectShift) & kCountMask;
  }
  static constexpr std::uint64_t tree_count(std::uint64_t w) noexcept {
    return (w >> kTreeShift) & kCountMask;
  }
  static constexpr std::uint64_t total_count(std::uint64_t w) noexcept {
    return direct_count(w) + tree_count(w);
  }
  static constexpr bool is_open(std::uint64_t w) noexcept {
    return (w & kOpenBit) != 0;
  }
  static constexpr std::uint64_t make_root(std::uint64_t direct,
                                           std::uint64_t tree,
                                           bool open) noexcept {
    return (direct << kDirectShift) | (tree << kTreeShift) |
           (open ? kOpenBit : 0);
  }

  // --- tree node ---------------------------------------------------------
  struct alignas(kFalseSharingRange) Node {
    typename M::template Atomic<std::uint64_t> cnt{0};
    Node* parent = nullptr;  // nullptr => parent is the root word
  };

  // Opaque handle naming the node an Arrive landed on; must be passed back
  // to Depart.  A default-constructed / failed ticket answers false to
  // arrived().
  class Ticket {
   public:
    Ticket() = default;

    bool arrived() const noexcept { return kind_ != Kind::kNone; }
    bool is_direct() const noexcept { return kind_ == Kind::kRoot; }

   private:
    friend class CSnzi;
    enum class Kind : std::uint8_t { kNone, kRoot, kNode };
    explicit Ticket(Kind k, Node* n = nullptr) : kind_(k), node_(n) {}

    Kind kind_ = Kind::kNone;
    Node* node_ = nullptr;
  };

  explicit CSnzi(const CSnziOptions& opts = {})
      : opts_(normalize(opts)),
        leaf_map_(opts_.topology, opts_.topology_mapping, opts_.leaves,
                  opts_.leaf_shift) {
    root_.store(make_root(0, 0, true), std::memory_order_relaxed);
    if (!opts_.lazy_tree) ensure_tree();
  }

  ~CSnzi() {
    delete[] tree_storage_.load(std::memory_order_acquire);
    delete[] thread_state_.load(std::memory_order_acquire);
  }

  CSnzi(const CSnzi&) = delete;
  CSnzi& operator=(const CSnzi&) = delete;

  // --- C-SNZI operations (Figure 1 specification) ------------------------

  // Arrive: increments the surplus iff the C-SNZI is open (with the tree
  // linearization subtlety described above).  Returns a ticket; a failed
  // arrival (closed C-SNZI) returns a ticket with arrived() == false.
  Ticket arrive() {
    ThreadState& ts = thread_state();
    if (ts.sticky > 0) {
      // Sticky fast path: recently switched to the tree; go straight to the
      // cached leaf.  No root access of any kind happens here unless the
      // leaf's count is zero (first arrival propagates; see file comment).
      --ts.sticky;
      Node* leaf = ts.leaf;
      if (tree_arrive(leaf, &ts)) {
        bump(ts.tree_arrivals);
        bump(ts.sticky_arrivals);
        if (ts.window_propagations > opts_.sticky_decay_propagations) {
          decay(ts);
        } else if (ts.sticky == 0) {
          rearm(ts);
        }
        return Ticket{Ticket::Kind::kNode, leaf};
      }
      // Closed with zero surplus: the window is over either way.
      ts.sticky = 0;
      ts.window_propagations = 0;
      return Ticket{};
    }
    std::uint32_t root_failures = 0;
    std::uint64_t old = root_.load(std::memory_order_acquire);
    bump(ts.root_reads);
    while (true) {
      if (!is_open(old)) return Ticket{};
      if (!should_arrive_at_tree(old, root_failures,
                                 ts.direct_hold > 0)) {
        if (fault_cas_fail(FaultSite::kCasRetry)) {
          // Injected spurious failure: legal wherever compare_exchange_weak
          // may fail spuriously.  Reload and retry like a genuine miss.
          old = root_.load(std::memory_order_acquire);
          ++root_failures;
          bump(ts.root_cas_failures);
          continue;
        }
        if (root_.compare_exchange_weak(old, old + kDirectOne,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          if (ts.direct_hold > 0) --ts.direct_hold;
          bump(ts.direct_arrivals);
          return Ticket{Ticket::Kind::kRoot};
        }
        ++root_failures;  // the failed CAS reloaded `old` for us
        bump(ts.root_cas_failures);
      } else {
        Node* leaf = leaf_for_thread(ts);
        arm_sticky(ts, leaf);
        if (tree_arrive(leaf, &ts)) {
          bump(ts.tree_arrivals);
          return Ticket{Ticket::Kind::kNode, leaf};
        }
        ts.sticky = 0;
        ts.window_propagations = 0;
        return Ticket{};
      }
    }
  }

  // Depart: decrements the surplus.  Returns false iff the resulting state
  // is CLOSED with zero surplus (the "last departure" a lock uses to detect
  // that it must hand over to a waiting writer).  Requires a ticket from a
  // successful arrival (or direct_ticket() backed by open_with_arrivals).
  bool depart(const Ticket& t) {
    OLL_DCHECK(t.arrived());
    if (t.kind_ == Ticket::Kind::kRoot) return root_depart_direct();
    return tree_depart(t.node_);
  }

  // Query: (surplus > 0, open).  A single root read — the whole point of
  // SNZI is that this is accurate without touching the tree.
  SnziQuery query() const {
    const std::uint64_t w = root_.load(std::memory_order_acquire);
    return SnziQuery{total_count(w) > 0, is_open(w)};
  }

  // Close: transitions OPEN -> CLOSED regardless of surplus.  Returns true
  // iff the C-SNZI was open with zero surplus (i.e. the caller atomically
  // "acquired" the empty indicator).
  bool close() {
    std::uint64_t old = root_.load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old)) return false;
      const std::uint64_t desired = old & ~kOpenBit;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_.load(std::memory_order_acquire);
        continue;
      }
      if (root_.compare_exchange_weak(old, desired, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        trace_event(TraceEventType::kCsnziClose, this);
        return total_count(desired) == 0;
      }
    }
  }

  // CloseIfEmpty (§2.1): close only when open with zero surplus.  Returns
  // true iff the state changed OPEN->CLOSED (writers use this as their
  // uncontended fast path).  On failure, `seen` (if given) receives the
  // root state the CAS observed, so the caller can act on it without
  // another root load.
  bool close_if_empty(SnziQuery* seen = nullptr) {
    std::uint64_t old = make_root(0, 0, true);
    if (root_.compare_exchange_strong(old, make_root(0, 0, false),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      trace_event(TraceEventType::kCsnziClose, this);
      return true;
    }
    if (seen != nullptr) *seen = SnziQuery{total_count(old) > 0, is_open(old)};
    return false;
  }

  // Open: requires CLOSED with zero surplus (lock is write-held by caller).
  void open() {
    OLL_DCHECK(!is_open(root_.load(std::memory_order_relaxed)));
    OLL_DCHECK(total_count(root_.load(std::memory_order_relaxed)) == 0);
    trace_event(TraceEventType::kCsnziOpen, this);
    root_.store(make_root(0, 0, true), std::memory_order_release);
  }

  // OpenWithArrivals (§2.1): atomically open, perform `count` arrivals
  // (credited to the direct counter — the waiting readers were handed
  // direct tickets), and optionally close again (writers still queued).
  // Requires CLOSED with zero surplus.
  void open_with_arrivals(std::uint64_t count, bool then_close) {
    OLL_DCHECK(!is_open(root_.load(std::memory_order_relaxed)));
    OLL_DCHECK(total_count(root_.load(std::memory_order_relaxed)) == 0);
    OLL_DCHECK(count <= kCountMask);
    if (!then_close) trace_event(TraceEventType::kCsnziOpen, this);
    root_.store(make_root(count, 0, !then_close), std::memory_order_release);
  }

  // A ticket departing directly from the root; used by lock code when a
  // releasing writer pre-arrives on behalf of sleeping readers
  // (OpenWithArrivals), who then each depart with a direct ticket.
  Ticket direct_ticket() const { return Ticket{Ticket::Kind::kRoot}; }

  // Abort support (timed acquisition, DESIGN.md §11): forget the calling
  // thread's sticky window and cached leaf in this instance.  A reader that
  // abandons a timed wait may release its dense index immediately after
  // returning (worker teardown, ScopedThreadIndex destruction), and the
  // index_epoch recycling guard in thread_state() only fires when the NEXT
  // holder of the index touches this instance through arrive() — an armed
  // window must not sit in the slot counting on that.  Draining here makes
  // abandonment self-contained: the slot an abandoning thread leaves behind
  // is indistinguishable from a fresh one.
  void drain_thread_sticky() {
    ThreadState* arr = thread_state_.load(std::memory_order_acquire);
    if (arr == nullptr) return;
    const std::uint32_t idx = this_thread_index();
    if (idx >= opts_.max_threads) return;
    ThreadState& ts = arr[idx];
    ts.epoch = ThreadRegistry::index_epoch(idx);
    forget_window(ts);
  }

  // --- write-upgrade support (§3.2.1) ------------------------------------
  //
  // try_upgrade_exclusive: the caller holds one arrival (ticket t).  If it
  // is the *sole* surplus and the C-SNZI is open, atomically close with zero
  // surplus (the caller now "owns" the closed indicator — write-acquired in
  // lock terms) and return true.  Otherwise return false; on return the
  // caller still holds exactly one arrival, though t may have been traded
  // for a direct-root ticket (the paper's counter trade).
  bool try_upgrade_exclusive(Ticket& t) {
    OLL_DCHECK(t.arrived());
    if (t.kind_ == Ticket::Kind::kNode) {
      // Trade the tree arrival for a direct arrival at the root, then test.
      if (!root_arrive_direct()) return false;  // closed: writer waiting
      tree_depart(t.node_);  // cannot be last: our direct arrival counts
      t = Ticket{Ticket::Kind::kRoot};
    }
    // Sole holder iff direct == 1 and tree == 0.
    std::uint64_t expected = make_root(1, 0, true);
    return root_.compare_exchange_strong(expected, make_root(0, 0, false),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  // Inverse of the above for lock downgrade: caller owns the closed, empty
  // indicator and converts it to a single direct arrival.
  Ticket downgrade_shared() {
    open_with_arrivals(1, /*then_close=*/false);
    return Ticket{Ticket::Kind::kRoot};
  }

  // --- introspection (tests / diagnostics) -------------------------------
  std::uint64_t root_word() const {
    return root_.load(std::memory_order_acquire);
  }
  bool tree_allocated() const {
    return tree_storage_.load(std::memory_order_acquire) != nullptr;
  }
  std::uint32_t leaf_count() const { return opts_.leaves; }
  const CSnziOptions& options() const { return opts_; }

  // Which leaf index the mapping assigns to a dense thread index.
  std::uint32_t leaf_index_of(std::uint32_t thread_index) const {
    return leaf_map_.leaf_of(thread_index);
  }

  // Arrival-path counters summed over threads; approximate while arrivals
  // are in flight, exact at quiescence (see csnzi_stats.hpp).
  CSnziStatsSnapshot stats() const {
    CSnziStatsSnapshot total;
    const ThreadState* arr = thread_state_.load(std::memory_order_acquire);
    if (arr == nullptr) return total;
    for (std::uint32_t i = 0; i < opts_.max_threads; ++i) {
      const ThreadState& ts = arr[i];
      total.root_reads += ts.root_reads.load(std::memory_order_relaxed);
      total.direct_arrivals +=
          ts.direct_arrivals.load(std::memory_order_relaxed);
      total.tree_arrivals += ts.tree_arrivals.load(std::memory_order_relaxed);
      total.sticky_arrivals +=
          ts.sticky_arrivals.load(std::memory_order_relaxed);
      total.root_cas_failures +=
          ts.root_cas_failures.load(std::memory_order_relaxed);
      total.root_propagations +=
          ts.root_propagations.load(std::memory_order_relaxed);
      total.redundant_undos +=
          ts.redundant_undos.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // Per-(thread, instance) state: the cached leaf and sticky window (owner
  // thread only — plain fields) plus the arrival counters (single-writer
  // relaxed atomics so stats() may read them concurrently, same scheme as
  // locks/lock_stats.hpp).  These are plain std::atomic even in simulated
  // builds: observability must not distort the virtual-time cost model.
  struct alignas(kFalseSharingRange) ThreadState {
    Node* leaf = nullptr;
    std::uint32_t sticky = 0;
    std::uint32_t window_propagations = 0;
    std::uint32_t root_free_rearms = 0;
    // Direct arrivals left in the hold that follows a decay; while nonzero
    // the adaptive policy ignores the root's tree-surplus hint.
    std::uint32_t direct_hold = 0;
    // Registration epoch of the dense thread index this slot was last used
    // under (platform/thread_id.hpp).  Dense indices are recycled when a
    // thread exits (or when the harness re-pins a new worker via
    // ScopedThreadIndex); a successor must not inherit its predecessor's
    // armed window or cached leaf, so thread_state() resets the slot on an
    // epoch mismatch.  The cumulative stats counters survive recycling.
    std::uint32_t epoch = 0;
    std::atomic<std::uint64_t> root_reads{0};
    std::atomic<std::uint64_t> direct_arrivals{0};
    std::atomic<std::uint64_t> tree_arrivals{0};
    std::atomic<std::uint64_t> sticky_arrivals{0};
    std::atomic<std::uint64_t> root_cas_failures{0};
    std::atomic<std::uint64_t> root_propagations{0};
    std::atomic<std::uint64_t> redundant_undos{0};
  };

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static CSnziOptions normalize(CSnziOptions o) {
    if (o.leaves == 0) o.leaves = 1;
    // Round leaves up to a power of two for cheap masking.
    std::uint32_t p = 1;
    while (p < o.leaves) p <<= 1;
    o.leaves = p;
    if (o.levels == 0) o.levels = 1;
    if (o.fanout < 2) o.fanout = 2;
    if (o.max_threads == 0 || o.max_threads > kMaxThreads) {
      o.max_threads = kMaxThreads;
    }
    // Clamp leaf_shift: a shift that sends every thread index this instance
    // can see (bounded by the just-defaulted max_threads) to leaf 0 is
    // always a misconfiguration when more than one leaf was requested
    // (leaves == 1 is the explicit way to ask for one leaf).
    if (o.leaves > 1 && o.max_threads > 1) {
      std::uint32_t max_shift = 0;
      while (((o.max_threads - 1) >> (max_shift + 1)) != 0) ++max_shift;
      if (o.leaf_shift > max_shift) o.leaf_shift = max_shift;
    }
    if (o.topology_mapping == LeafMapping::kAuto) {
      // A caller who set leaf_shift asked for the seed's static scheme.
      o.topology_mapping = o.leaf_shift != 0 ? LeafMapping::kStaticShift
                                             : LeafMapping::kSmtCluster;
    }
    if (o.topology == nullptr) o.topology = &Topology::system();
    return o;
  }

  bool should_arrive_at_tree(std::uint64_t root_word, std::uint32_t failures,
                             bool held) const {
    switch (opts_.policy) {
      case ArrivalPolicy::kAlwaysRoot:
        return false;
      case ArrivalPolicy::kAlwaysTree:
        return true;
      case ArrivalPolicy::kAdaptive:
        // §5.1: favor direct arrivals until we lose the root CAS repeatedly
        // or see that other threads have already moved to the tree.  A
        // thread in a decay hold just learned that its leaf does not absorb
        // arrivals, so only lost CASes move it back.
        return failures >= opts_.root_cas_fail_threshold ||
               (!held && tree_count(root_word) > 0);
    }
    return false;
  }

  // --- sticky window management ------------------------------------------
  void arm_sticky(ThreadState& ts, Node* leaf) {
    if (opts_.sticky_arrivals == 0 ||
        opts_.policy != ArrivalPolicy::kAdaptive) {
      return;
    }
    ts.leaf = leaf;
    ts.sticky = opts_.sticky_arrivals;
    ts.window_propagations = 0;
    ts.root_free_rearms = 0;
    ts.direct_hold = 0;
  }

  // The window propagated to the root more than sticky_decay_propagations
  // times: the leaf keeps draining, so each tree arrival pays a leaf RMW on
  // top of the root RMW a direct arrival pays.  End the window now and
  // make the next sticky_arrivals arrivals direct.
  void decay(ThreadState& ts) {
    ts.sticky = 0;
    ts.window_propagations = 0;
    ts.root_free_rearms = 0;
    ts.direct_hold = opts_.sticky_arrivals;
  }

  void rearm(ThreadState& ts) {
    ts.window_propagations = 0;
    // A quiet window means the leaf stayed hot: stay in the tree.  Re-arm
    // without touching the root at most sticky_rearm_windows times in a
    // row; then re-read the root so a Close demotes this thread to the
    // root-reading path instead of letting it feed the leaf forever (the
    // writer-starvation bound described in the file comment).
    if (ts.root_free_rearms < opts_.sticky_rearm_windows) {
      ++ts.root_free_rearms;
      ts.sticky = opts_.sticky_arrivals;
      return;
    }
    ts.root_free_rearms = 0;
    const std::uint64_t w = root_.load(std::memory_order_acquire);
    bump(ts.root_reads);
    if (is_open(w)) ts.sticky = opts_.sticky_arrivals;
  }

  // --- direct root arrival/departure -------------------------------------
  bool root_arrive_direct() {
    std::uint64_t old = root_.load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old)) return false;
      if (root_.compare_exchange_weak(old, old + kDirectOne,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return true;
      }
      // The failed CAS stored the current word into `old`; loop on it.
    }
  }

  // Every departure is one RMW: a depart cannot fail, so it needs no
  // compare step (DESIGN.md §12.2).
  bool root_depart_direct() {
    const std::uint64_t old =
        root_.fetch_sub(kDirectOne, std::memory_order_acq_rel);
    OLL_DCHECK(direct_count(old) > 0);
    return !last_departure(old - kDirectOne);
  }

  // The departure that leaves the root CLOSED with zero surplus is the one
  // that hands the lock to a waiting writer.
  static constexpr bool last_departure(std::uint64_t w) noexcept {
    return total_count(w) == 0 && !is_open(w);
  }

  // --- tree arrival/departure: root base cases (Figure 2) ----------------
  // Fails only when CLOSED with zero total surplus; see file comment.
  bool root_arrive_tree(ThreadState* ts) {
    if (ts != nullptr) {
      ++ts->window_propagations;
      bump(ts->root_propagations);
    }
    std::uint64_t old = root_.load(std::memory_order_acquire);
    while (true) {
      if (!is_open(old) && total_count(old) == 0) return false;
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        old = root_.load(std::memory_order_acquire);
        continue;
      }
      if (root_.compare_exchange_weak(old, old + kTreeOne,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return true;
      }
      if (ts != nullptr) bump(ts->root_cas_failures);
    }
  }

  bool root_depart_tree() {
    const std::uint64_t old =
        root_.fetch_sub(kTreeOne, std::memory_order_acq_rel);
    OLL_DCHECK(tree_count(old) > 0);
    return !last_departure(old - kTreeOne);
  }

  // --- tree arrival/departure: counter nodes (Figure 2) ------------------
  bool tree_arrive(Node* node, ThreadState* ts) {
    bool arrived_at_parent = false;
    std::uint64_t x = node->cnt.load(std::memory_order_acquire);
    while (true) {
      if (x == 0 && !arrived_at_parent) {
        const bool ok = node->parent ? tree_arrive(node->parent, ts)
                                     : root_arrive_tree(ts);
        if (!ok) return false;
        arrived_at_parent = true;
        x = node->cnt.load(std::memory_order_acquire);  // re-read before CAS
        continue;
      }
      if (fault_cas_fail(FaultSite::kCasRetry)) {
        x = node->cnt.load(std::memory_order_acquire);
        continue;
      }
      if (node->cnt.compare_exchange_weak(x, x + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        break;
      }
      // The failed CAS stored the current count into `x`; loop on it.
    }
    if (arrived_at_parent && x != 0) {
      // Someone else created the surplus between our check and our CAS; undo
      // the redundant parent arrival.
      if (ts != nullptr) bump(ts->redundant_undos);
      if (node->parent) {
        tree_depart(node->parent);
      } else {
        root_depart_tree();
      }
    }
    return true;
  }

  bool tree_depart(Node* node) {
    const std::uint64_t x = node->cnt.fetch_sub(1, std::memory_order_acq_rel);
    OLL_DCHECK(x > 0);
    if (x == 1) {
      return node->parent ? tree_depart(node->parent) : root_depart_tree();
    }
    return true;
  }

  // --- tree construction --------------------------------------------------
  // Layout in one array: [leaves][level above leaves]...[level below root].
  // total nodes = leaves + leaves/fanout + ... for levels-1 internal tiers.
  std::uint32_t total_nodes() const {
    std::uint32_t total = opts_.leaves;
    std::uint32_t width = opts_.leaves;
    for (std::uint32_t l = 1; l < opts_.levels; ++l) {
      width = (width + opts_.fanout - 1) / opts_.fanout;
      total += width;
    }
    return total;
  }

  Node* ensure_tree() {
    Node* existing = tree_storage_.load(std::memory_order_acquire);
    if (existing) return existing;
    const std::uint32_t n = total_nodes();
    Node* fresh = new Node[n];
    // Wire parents: leaves occupy [0, leaves); each subsequent tier follows.
    std::uint32_t tier_base = 0;
    std::uint32_t tier_width = opts_.leaves;
    for (std::uint32_t l = 1; l < opts_.levels; ++l) {
      const std::uint32_t next_width =
          (tier_width + opts_.fanout - 1) / opts_.fanout;
      const std::uint32_t next_base = tier_base + tier_width;
      for (std::uint32_t i = 0; i < tier_width; ++i) {
        fresh[tier_base + i].parent = &fresh[next_base + i / opts_.fanout];
      }
      tier_base = next_base;
      tier_width = next_width;
    }
    // Topmost tier's parent is the root word (nullptr sentinel).
    for (std::uint32_t i = 0; i < tier_width; ++i) {
      fresh[tier_base + i].parent = nullptr;
    }
    Node* expected = nullptr;
    if (tree_storage_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another thread won the publication race
    return expected;
  }

  ThreadState& thread_state() {
    ThreadState* arr = thread_state_.load(std::memory_order_acquire);
    if (arr == nullptr) arr = ensure_thread_state();
    const std::uint32_t idx = this_thread_index();
    OLL_CHECK(idx < opts_.max_threads);
    ThreadState& ts = arr[idx];
    // Dense indices are recycled; drop sticky state armed by a previous
    // thread that held this index (see the ThreadState comment).
    const std::uint32_t epoch = ThreadRegistry::index_epoch(idx);
    if (ts.epoch != epoch) {
      ts.epoch = epoch;
      forget_window(ts);
    }
    return ts;
  }

  static void forget_window(ThreadState& ts) {
    ts.leaf = nullptr;
    ts.sticky = 0;
    ts.window_propagations = 0;
    ts.root_free_rearms = 0;
    ts.direct_hold = 0;
  }

  ThreadState* ensure_thread_state() {
    ThreadState* fresh = new ThreadState[opts_.max_threads];
    ThreadState* expected = nullptr;
    if (thread_state_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // another thread won the publication race
    return expected;
  }

  Node* leaf_for_thread(ThreadState& ts) {
    if (ts.leaf == nullptr) {
      Node* tree = ensure_tree();
      ts.leaf = &tree[leaf_map_.leaf_of(this_thread_index())];
    }
    return ts.leaf;
  }

  // Hot-word layout (DESIGN.md §17).  Everything up to root_ is read on
  // every operation but written only at construction (the two pointers are
  // published once, lazily), so it may share lines with the owning lock's
  // read-mostly fields.  The root is the word every direct arrival, depart
  // and close/open RMWs; it gets a false-sharing range of its own, so no
  // root CAS invalidates the fields above, whatever offset the allocator
  // gives the object.  The alignment also rounds sizeof up to a whole
  // range, keeping the owner's following members off the root's range.
  CSnziOptions opts_;
  LeafMap leaf_map_;
  // Owned tree storage; published lock-free, freed in the destructor.  This
  // is a std::atomic even in simulated builds: tree publication is a
  // once-per-lock event, not a contended hot path we want to model.
  std::atomic<Node*> tree_storage_{nullptr};
  // Lazily-allocated per-thread state array (same publication scheme).
  std::atomic<ThreadState*> thread_state_{nullptr};
  alignas(kFalseSharingRange) typename M::template Atomic<std::uint64_t> root_;

 public:
  // Member address ranges for the layout test (tests/footprint_test.cpp):
  // the root group is the RMW target, the rest is read on every arrival.
  template <typename F>
  void visit_layout(F&& f) const {
    constexpr LayoutGroup kRead = LayoutGroup::kReadMostly;
    constexpr LayoutGroup kRoot = LayoutGroup::kCSnziRoot;
    f("csnzi.opts_", &opts_, sizeof(opts_), kRead);
    f("csnzi.leaf_map_", &leaf_map_, sizeof(leaf_map_), kRead);
    f("csnzi.tree_storage_", &tree_storage_, sizeof(tree_storage_), kRead);
    f("csnzi.thread_state_", &thread_state_, sizeof(thread_state_), kRead);
    f("csnzi.root_", &root_, sizeof(root_), kRoot);
  }
};

}  // namespace oll
