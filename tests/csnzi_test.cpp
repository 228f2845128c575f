// Unit tests for the C-SNZI object (paper §2, Figures 1 and 2): the
// sequential specification, the dual-counter root word, the tree path, the
// §2.1 variations, and the write-upgrade support.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "platform/fault.hpp"
#include "platform/memory.hpp"
#include "platform/thread_id.hpp"
#include "snzi/csnzi.hpp"
#include "snzi/snzi.hpp"

namespace oll {
namespace {

using C = CSnzi<RealMemory>;

CSnziOptions root_only() {
  CSnziOptions o;
  o.policy = ArrivalPolicy::kAlwaysRoot;
  return o;
}

CSnziOptions tree_only() {
  CSnziOptions o;
  o.policy = ArrivalPolicy::kAlwaysTree;
  return o;
}

// --- Figure 1 sequential specification ------------------------------------

TEST(CSnzi, InitiallyOpenWithZeroSurplus) {
  C c;
  auto q = c.query();
  EXPECT_FALSE(q.nonzero);
  EXPECT_TRUE(q.open);
}

TEST(CSnzi, ArriveCreatesSurplus) {
  C c;
  auto t = c.arrive();
  ASSERT_TRUE(t.arrived());
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.query().open);
}

TEST(CSnzi, DepartRemovesSurplus) {
  C c;
  auto t = c.arrive();
  EXPECT_TRUE(c.depart(t));  // open: depart returns true
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnzi, ArriveFailsWhenClosed) {
  C c;
  EXPECT_TRUE(c.close());  // open, zero surplus
  auto t = c.arrive();
  EXPECT_FALSE(t.arrived());
  EXPECT_FALSE(c.query().open);
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnzi, CloseOnOpenEmptyReturnsTrue) {
  C c;
  EXPECT_TRUE(c.close());
}

TEST(CSnzi, CloseWithSurplusReturnsFalse) {
  C c;
  auto t = c.arrive();
  EXPECT_FALSE(c.close());
  EXPECT_FALSE(c.query().open);
  EXPECT_TRUE(c.query().nonzero);  // surplus survives the close
  // Last departure from a closed C-SNZI reports false.
  EXPECT_FALSE(c.depart(t));
}

TEST(CSnzi, CloseOnClosedReturnsFalse) {
  C c;
  EXPECT_TRUE(c.close());
  EXPECT_FALSE(c.close());
}

TEST(CSnzi, DepartOnClosedNonLastReturnsTrue) {
  C c;
  auto t1 = c.arrive();
  auto t2 = c.arrive();
  EXPECT_FALSE(c.close());
  EXPECT_TRUE(c.depart(t1));   // surplus 2 -> 1: not last
  EXPECT_FALSE(c.depart(t2));  // surplus 1 -> 0 on a closed C-SNZI
}

TEST(CSnzi, OpenAfterClose) {
  C c;
  EXPECT_TRUE(c.close());
  c.open();
  auto q = c.query();
  EXPECT_TRUE(q.open);
  EXPECT_FALSE(q.nonzero);
  EXPECT_TRUE(c.arrive().arrived());
}

TEST(CSnzi, SurplusStaysZeroWhileClosed) {
  // Figure 1: once a closed C-SNZI has no surplus, its surplus remains zero
  // until it is opened.
  C c;
  EXPECT_TRUE(c.close());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(c.arrive().arrived());
    EXPECT_FALSE(c.query().nonzero);
  }
}

// --- §2.1 variations --------------------------------------------------------

TEST(CSnzi, CloseIfEmptySucceedsOnlyWhenEmpty) {
  C c;
  EXPECT_TRUE(c.close_if_empty());
  EXPECT_FALSE(c.query().open);
  c.open();
  auto t = c.arrive();
  EXPECT_FALSE(c.close_if_empty());  // surplus nonzero: no change
  EXPECT_TRUE(c.query().open);
  EXPECT_TRUE(c.depart(t));
}

TEST(CSnzi, CloseIfEmptyFailsWhenClosed) {
  C c;
  EXPECT_TRUE(c.close());
  EXPECT_FALSE(c.close_if_empty());
}

TEST(CSnzi, OpenWithArrivalsOpen) {
  C c;
  EXPECT_TRUE(c.close());
  c.open_with_arrivals(3, /*then_close=*/false);
  EXPECT_TRUE(c.query().open);
  EXPECT_TRUE(c.query().nonzero);
  // The three pre-arrived readers depart with direct tickets.
  EXPECT_TRUE(c.depart(c.direct_ticket()));
  EXPECT_TRUE(c.depart(c.direct_ticket()));
  EXPECT_TRUE(c.depart(c.direct_ticket()));  // open: still true
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnzi, OpenWithArrivalsThenClose) {
  C c;
  EXPECT_TRUE(c.close());
  c.open_with_arrivals(2, /*then_close=*/true);
  EXPECT_FALSE(c.query().open);
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.depart(c.direct_ticket()));
  EXPECT_FALSE(c.depart(c.direct_ticket()));  // last departure, closed
}

// --- tree path ---------------------------------------------------------------

TEST(CSnziTree, TreeArriveDepartMaintainsQuery) {
  C c(tree_only());
  EXPECT_FALSE(c.tree_allocated());
  auto t = c.arrive();
  ASSERT_TRUE(t.arrived());
  EXPECT_FALSE(t.is_direct());
  EXPECT_TRUE(c.tree_allocated());  // lazily allocated on first tree arrival
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.depart(t));
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziTree, RootStaysUntouchedWhileLeafNonzero) {
  C c(tree_only());
  auto t1 = c.arrive();
  const std::uint64_t root_after_first = c.root_word();
  // The same thread maps to the same leaf: subsequent arrivals must not
  // modify the root (the SNZI property the locks rely on).
  auto t2 = c.arrive();
  auto t3 = c.arrive();
  EXPECT_EQ(c.root_word(), root_after_first);
  EXPECT_TRUE(c.depart(t3));
  EXPECT_TRUE(c.depart(t2));
  EXPECT_EQ(c.root_word(), root_after_first);
  EXPECT_TRUE(c.depart(t1));
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziTree, CloseWithTreeSurplusReturnsFalse) {
  C c(tree_only());
  auto t = c.arrive();
  EXPECT_FALSE(c.close());
  EXPECT_FALSE(c.depart(t));  // last departure from closed
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziTree, TreeArriveSucceedsOnClosedNonzeroRoot) {
  // §2.2 linearization subtlety: a tree arrival that saw the C-SNZI open may
  // complete after a Close as long as total surplus is nonzero.
  C c(tree_only());
  auto t1 = c.arrive();
  EXPECT_FALSE(c.close());
  // t1's leaf has count 1, so a second arrival at the same leaf increments
  // without consulting the root — and must succeed.
  auto t2 = c.arrive();  // NOTE: arrive() itself checks open first...
  // arrive() refuses because the top-level check sees CLOSED — that is the
  // specified behavior for *new* arrivals.
  EXPECT_FALSE(t2.arrived());
  EXPECT_FALSE(c.depart(t1));
}

TEST(CSnziTree, DeepTree) {
  CSnziOptions o;
  o.policy = ArrivalPolicy::kAlwaysTree;
  o.leaves = 16;
  o.levels = 3;
  o.fanout = 4;
  C c(o);
  std::vector<C::Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    tickets.push_back(t);
  }
  EXPECT_TRUE(c.query().nonzero);
  for (int i = 0; i < 31; ++i) EXPECT_TRUE(c.depart(tickets[i]));
  EXPECT_TRUE(c.depart(tickets[31]));  // open: returns true even when last
  EXPECT_FALSE(c.query().nonzero);
}

// --- dual-counter root / upgrade (§3.2.1) -----------------------------------

TEST(CSnziUpgrade, SoleDirectReaderUpgrades) {
  C c(root_only());
  auto t = c.arrive();
  ASSERT_TRUE(t.is_direct());
  EXPECT_TRUE(c.try_upgrade_exclusive(t));
  // Upgraded: closed with zero surplus == write-acquired.
  EXPECT_FALSE(c.query().open);
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziUpgrade, FailsWithSecondReader) {
  C c(root_only());
  auto t1 = c.arrive();
  auto t2 = c.arrive();
  EXPECT_FALSE(c.try_upgrade_exclusive(t1));
  // Still read-held by both.
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.query().open);
  EXPECT_TRUE(c.depart(t1));
  EXPECT_TRUE(c.depart(t2));
}

TEST(CSnziUpgrade, TreeTicketTradesForDirect) {
  C c(tree_only());
  auto t = c.arrive();
  ASSERT_FALSE(t.is_direct());
  EXPECT_TRUE(c.try_upgrade_exclusive(t));
  EXPECT_FALSE(c.query().open);
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziUpgrade, TreeTicketFailedUpgradeKeepsHold) {
  C c(tree_only());
  auto t1 = c.arrive();
  auto t2 = c.arrive();
  EXPECT_FALSE(c.try_upgrade_exclusive(t1));
  EXPECT_TRUE(t1.arrived());  // traded ticket still represents our hold
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.depart(t1));
  EXPECT_TRUE(c.depart(t2));
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziUpgrade, DowngradeRestoresSharedHold) {
  C c;
  EXPECT_TRUE(c.close());  // write-acquire
  auto t = c.downgrade_shared();
  EXPECT_TRUE(c.query().open);
  EXPECT_TRUE(c.query().nonzero);
  EXPECT_TRUE(c.depart(t));
  EXPECT_FALSE(c.query().nonzero);
}

// --- adaptive policy ---------------------------------------------------------

TEST(CSnziPolicy, AdaptiveStartsAtRoot) {
  C c;  // default adaptive
  auto t = c.arrive();
  EXPECT_TRUE(t.is_direct());
  EXPECT_FALSE(c.tree_allocated());
  EXPECT_TRUE(c.depart(t));
}

TEST(CSnziPolicy, AdaptiveFollowsTreeWhenTreeSurplusVisible) {
  C c;
  // Force one tree arrival so the root advertises tree usage.
  CSnziOptions o = c.options();
  (void)o;
  // Simulate: arrive via tree by temporarily using a tree-only C-SNZI is not
  // possible on the same object, so drive the adaptive path with concurrency
  // in the stress tests; here we only check the direct fast path invariant.
  auto t1 = c.arrive();
  auto t2 = c.arrive();
  EXPECT_TRUE(t1.is_direct());
  EXPECT_TRUE(t2.is_direct());
  EXPECT_TRUE(c.depart(t2));
  EXPECT_TRUE(c.depart(t1));
}

// --- concurrent smoke (full stress lives in stress tests) --------------------

TEST(CSnziConcurrent, ManyThreadsArriveDepart) {
  C c;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kIters; ++j) {
        auto t = c.arrive();
        ASSERT_TRUE(t.arrived());
        ASSERT_TRUE(c.query().nonzero);
        c.depart(t);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(c.query().nonzero);
  EXPECT_TRUE(c.query().open);
}

// --- sticky arrivals / topology mapping / arrival counters -------------------

// Deterministic tree usage under kAdaptive: a zero CAS-failure threshold
// makes should_arrive_at_tree true on the first attempt, and (unlike
// kAlwaysTree) keeps the sticky fast path eligible.
CSnziOptions sticky_tree(std::uint32_t window, std::uint32_t decay) {
  CSnziOptions o;
  o.root_cas_fail_threshold = 0;
  o.sticky_arrivals = window;
  o.sticky_decay_propagations = decay;
  return o;
}

TEST(CSnziSticky, SkipsRootWhileLeafHot) {
  C c(sticky_tree(8, 8));
  auto hold = c.arrive();  // switches to the tree and arms the window
  ASSERT_TRUE(hold.arrived());
  ASSERT_FALSE(hold.is_direct());
  const std::uint64_t root = c.root_word();
  for (int i = 0; i < 6; ++i) {
    auto t = c.arrive();  // leaf count never drops to 0: pure leaf traffic
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  EXPECT_EQ(c.root_word(), root);
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.root_reads, 1u);  // only the arming arrival read the root
  EXPECT_EQ(s.sticky_arrivals, 6u);
  EXPECT_EQ(s.tree_arrivals, 7u);
  EXPECT_EQ(s.direct_arrivals, 0u);
  EXPECT_TRUE(c.depart(hold));
}

TEST(CSnziSticky, WindowRearmsWithoutRootReadWhileLeafHot) {
  CSnziOptions o = sticky_tree(2, 8);
  o.sticky_rearm_windows = 8;  // all five re-arms below fit the budget
  C c(o);
  auto hold = c.arrive();
  ASSERT_TRUE(hold.arrived());
  // 10 arrivals exhaust the 2-wide window five times; a hot leaf (zero
  // propagations) re-arms every time with no root access.
  for (int i = 0; i < 10; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.root_reads, 1u);
  EXPECT_EQ(s.sticky_arrivals, 10u);
  EXPECT_TRUE(c.depart(hold));
}

TEST(CSnziSticky, RearmPeriodicallyRereadsRoot) {
  // Root-free re-arms are budgeted: after sticky_rearm_windows of them the
  // next window boundary pays one root read (and, below, is what lets a
  // closing writer cut sticky readers off).
  CSnziOptions o = sticky_tree(2, 8);
  o.sticky_rearm_windows = 1;
  C c(o);
  auto hold = c.arrive();
  ASSERT_TRUE(hold.arrived());
  // 10 arrivals = 5 window boundaries; boundaries alternate root-free and
  // root-checking, so boundaries 2 and 4 read the (still open) root.
  for (int i = 0; i < 10; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.root_reads, 3u);  // the arming arrival + two re-arm checks
  EXPECT_EQ(s.sticky_arrivals, 10u);  // every arrival still skipped the root
  EXPECT_TRUE(c.depart(hold));
}

TEST(CSnziSticky, CloseDemotesStickyReaderWithinRearmBudget) {
  // Writer-starvation regression: a sticky reader whose leaf never drains
  // (the `hold` ticket keeps it hot) must stop arriving successfully within
  // (sticky_rearm_windows + 1) windows of a Close — the budgeted root
  // re-read sees CLOSED and refuses to re-arm.
  CSnziOptions o = sticky_tree(2, 8);
  o.sticky_rearm_windows = 1;
  C c(o);
  auto hold = c.arrive();  // arms the window, leaf stays nonzero throughout
  ASSERT_TRUE(hold.arrived());
  EXPECT_FALSE(c.close());  // surplus present: writer now waits for drain
  // Window boundary 1 re-arms root-free, boundary 2 reads CLOSED and stops:
  // exactly 4 more sticky arrivals succeed, then every arrival fails.
  for (int i = 0; i < 4; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived()) << "arrival " << i;
    EXPECT_TRUE(c.depart(t));
  }
  EXPECT_FALSE(c.arrive().arrived());
  EXPECT_FALSE(c.arrive().arrived());  // demotion is permanent while closed
  EXPECT_FALSE(c.depart(hold));  // last departure: the writer may proceed
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziSticky, RecycledThreadIndexDropsInheritedWindow) {
  // Dense thread indices are recycled (thread_id.hpp); a successor pinned
  // to the same index must not inherit the predecessor's armed window or
  // cached leaf — its first arrival re-reads the root.
  C c(sticky_tree(8, 8));
  {
    ScopedThreadIndex idx(5);
    auto t = c.arrive();  // arms an 8-wide window for index 5
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  const std::uint64_t reads_before = c.stats().root_reads;
  {
    ScopedThreadIndex idx(5);  // a new thread claims the recycled index
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  EXPECT_EQ(c.stats().root_reads, reads_before + 1);
}

TEST(CSnziSticky, DecaysWhenLeafKeepsDraining) {
  // Solo arrive/depart pairs drain the leaf every time, so every sticky
  // arrival propagates to the root; with zero tolerated propagations the
  // first sticky arrival ends its window and the next arrival re-reads the
  // root.  (The zero CAS-failure threshold then sends that arrival back to
  // the tree despite the decay hold.)  Cycle: one root-read arrival + one
  // sticky arrival.
  C c(sticky_tree(2, 0));
  for (int i = 0; i < 9; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.tree_arrivals, 9u);
  EXPECT_EQ(s.sticky_arrivals, 4u);
  EXPECT_EQ(s.root_reads, 5u);  // arrivals 1, 3, 5, 7 and 9
  EXPECT_GE(s.root_propagations, 9u);
}

// --- decay hold: a draining leaf sends its thread to the root ---------------

// Root-CAS failures forced on nearly every attempt (the tree paths' own CAS
// loops still succeed within a few thousand draws), so the adaptive policy
// reaches root_cas_fail_threshold and arrives through the tree.
class ForcedRootCasFailures {
 public:
  ForcedRootCasFailures() {
    FaultProfile p;
    p.name = "cas-retry";
    p.cas_fail_p = 1023;
    fault_enable(p, 0x5eed);
  }
  ~ForcedRootCasFailures() { fault_disable(); }
  ForcedRootCasFailures(const ForcedRootCasFailures&) = delete;
  ForcedRootCasFailures& operator=(const ForcedRootCasFailures&) = delete;
};

// Private leaves, a 4-arrival window that decays on its second
// propagation, and the default CAS-failure threshold (2), so only the
// root's tree-surplus hint or lost CASes send a thread to the tree.
CSnziOptions private_leaf_decay() {
  CSnziOptions o;
  o.topology_mapping = LeafMapping::kPerThread;
  o.sticky_arrivals = 4;
  o.sticky_decay_propagations = 1;
  return o;
}

// Index 7 arrives through the tree (forced root-CAS failures) and keeps
// its ticket, so the root advertises tree surplus to everyone else.
C::Ticket hold_tree_surplus(C& c) {
  ScopedThreadIndex idx(7);
  ForcedRootCasFailures faults;
  C::Ticket t = c.arrive();
  EXPECT_TRUE(t.arrived());
  EXPECT_FALSE(t.is_direct());
  EXPECT_GT(C::tree_count(c.root_word()), 0u);
  return t;
}

// Drives index 3 through one tree window that decays: arrival 1 reads the
// root, sees the tree surplus and arms the window; arrival 2 is sticky and
// its propagation (the second of the window) ends it.
void decay_once(C& c) {
  for (int i = 0; i < 2; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_FALSE(t.is_direct()) << "arrival " << i;
    EXPECT_TRUE(c.depart(t));
  }
}

TEST(CSnziDecayHold, DrainingLeafHoldsDirectDespiteTreeSurplus) {
  C c(private_leaf_decay());
  C::Ticket other = hold_tree_surplus(c);
  {
    ScopedThreadIndex idx(3);
    ASSERT_NE(c.leaf_index_of(3), c.leaf_index_of(7));
    const CSnziStatsSnapshot before = c.stats();
    decay_once(c);
    // The hold: exactly sticky_arrivals direct arrivals, although the root
    // still shows index 7's tree surplus throughout.
    for (int i = 0; i < 4; ++i) {
      EXPECT_GT(C::tree_count(c.root_word()), 0u);
      auto t = c.arrive();
      ASSERT_TRUE(t.arrived());
      EXPECT_TRUE(t.is_direct()) << "held arrival " << i;
      EXPECT_TRUE(c.depart(t));
    }
    // Hold spent: the tree-surplus hint applies again.
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_FALSE(t.is_direct());
    EXPECT_TRUE(c.depart(t));
    const CSnziStatsSnapshot s = c.stats();
    EXPECT_EQ(s.direct_arrivals - before.direct_arrivals, 4u);
    EXPECT_EQ(s.tree_arrivals - before.tree_arrivals, 3u);
    EXPECT_EQ(s.sticky_arrivals - before.sticky_arrivals, 1u);
    EXPECT_EQ(s.root_reads - before.root_reads, 6u);
  }
  EXPECT_TRUE(c.depart(other));
  EXPECT_FALSE(c.query().nonzero);
}

TEST(CSnziDecayHold, LostRootCasesStillMoveHeldThreadToTree) {
  C c(private_leaf_decay());
  C::Ticket other = hold_tree_surplus(c);
  {
    ScopedThreadIndex idx(3);
    decay_once(c);
    auto held = c.arrive();  // one held arrival: direct
    ASSERT_TRUE(held.arrived());
    EXPECT_TRUE(held.is_direct());
    EXPECT_TRUE(c.depart(held));
    C::Ticket t;
    {
      ForcedRootCasFailures faults;
      t = c.arrive();  // still held, but loses the root CAS twice
    }
    ASSERT_TRUE(t.arrived());
    EXPECT_FALSE(t.is_direct());
    EXPECT_TRUE(c.depart(t));
    // The move to the tree armed a fresh window: the next arrival is sticky.
    const std::uint64_t sticky_before = c.stats().sticky_arrivals;
    auto next = c.arrive();
    ASSERT_TRUE(next.arrived());
    EXPECT_FALSE(next.is_direct());
    EXPECT_TRUE(c.depart(next));
    EXPECT_EQ(c.stats().sticky_arrivals, sticky_before + 1);
  }
  EXPECT_TRUE(c.depart(other));
}

// --- one-RMW departures ------------------------------------------------------

// A departure is one fetch_sub; it reports false exactly when it leaves the
// root CLOSED with zero surplus, whichever counter it lands on.
TEST(CSnziDepart, LastDepartureOnlyAtClosedAndEmpty) {
  CSnziOptions tree = tree_only();
  tree.topology_mapping = LeafMapping::kPerThread;
  for (const CSnziOptions& o : {root_only(), tree}) {
    C c(o);
    auto solo = c.arrive();
    ASSERT_TRUE(solo.arrived());
    EXPECT_TRUE(c.depart(solo));  // open and empty: not a last departure
    C::Ticket t1, t2, t3;
    {
      ScopedThreadIndex idx(1);
      t1 = c.arrive();
      t2 = c.arrive();  // tree: shares t1's leaf, absorbed there
    }
    {
      ScopedThreadIndex idx(2);
      t3 = c.arrive();  // tree: a second leaf, a second root count
    }
    ASSERT_TRUE(t1.arrived() && t2.arrived() && t3.arrived());
    EXPECT_EQ(t1.is_direct(), o.policy == ArrivalPolicy::kAlwaysRoot);
    EXPECT_FALSE(c.close());
    EXPECT_TRUE(c.depart(t1));   // closed, two left
    EXPECT_TRUE(c.depart(t3));   // closed, one left (tree: drains a leaf)
    EXPECT_FALSE(c.depart(t2));  // closed and empty: the handoff
    EXPECT_FALSE(c.query().nonzero);
    EXPECT_FALSE(c.query().open);
    EXPECT_EQ(C::total_count(c.root_word()), 0u);
  }
}

TEST(CSnziSticky, ArrivalSucceedsAfterCloseWhileLeafNonzero) {
  // The §2.2 linearization rule, now reachable from arrive(): a sticky
  // arrival at a nonzero leaf never consults the root and therefore
  // succeeds even after a Close — it linearizes at the root access that
  // armed its window, when the C-SNZI was still open.
  C c(sticky_tree(8, 8));
  auto t1 = c.arrive();
  ASSERT_TRUE(t1.arrived());
  EXPECT_FALSE(c.close());  // surplus present
  auto t2 = c.arrive();
  ASSERT_TRUE(t2.arrived());  // leaf nonzero: joined the surplus
  EXPECT_TRUE(c.depart(t2));   // not last
  EXPECT_FALSE(c.depart(t1));  // last departure from a closed C-SNZI
  // Leaf drained: the next sticky arrival propagates, finds CLOSED with
  // zero surplus, and fails; the window resets.
  EXPECT_FALSE(c.arrive().arrived());
  EXPECT_FALSE(c.query().nonzero);
  EXPECT_FALSE(c.query().open);
}

TEST(CSnziSticky, DisabledWindowRereadsRootEveryArrival) {
  CSnziOptions o = sticky_tree(0, 0);  // sticky off
  C c(o);
  auto hold = c.arrive();
  ASSERT_TRUE(hold.arrived());
  for (int i = 0; i < 5; ++i) {
    auto t = c.arrive();
    ASSERT_TRUE(t.arrived());
    EXPECT_TRUE(c.depart(t));
  }
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.root_reads, 6u);  // every arrival paid the root load
  EXPECT_EQ(s.sticky_arrivals, 0u);
  EXPECT_TRUE(c.depart(hold));
}

TEST(CSnziStats, CountsDirectArrivals) {
  C c(root_only());
  auto t = c.arrive();
  EXPECT_TRUE(c.depart(t));
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.direct_arrivals, 1u);
  EXPECT_EQ(s.tree_arrivals, 0u);
  EXPECT_EQ(s.root_reads, 1u);
  EXPECT_EQ(s.arrivals(), 1u);
}

TEST(CSnziStats, CountsTreePropagations) {
  C c(tree_only());
  auto t = c.arrive();
  EXPECT_TRUE(c.depart(t));
  const CSnziStatsSnapshot s = c.stats();
  EXPECT_EQ(s.tree_arrivals, 1u);
  EXPECT_EQ(s.root_propagations, 1u);  // first leaf arrival reached the root
  EXPECT_EQ(s.direct_arrivals, 0u);
}

// --- CSnziOptions::normalize regression: leaf_shift clamp --------------------

TEST(CSnziOptionsNorm, LeafShiftClampedSoThreadsSpread) {
  CSnziOptions o;
  o.leaf_shift = 31;  // would send every thread index to leaf 0
  o.leaves = 64;
  C c(o);
  EXPECT_EQ(c.options().topology_mapping, LeafMapping::kStaticShift);
  EXPECT_EQ(c.options().leaf_shift, 9u);  // (kMaxThreads-1) >> 9 != 0
  EXPECT_NE(c.leaf_index_of(0), c.leaf_index_of(kMaxThreads - 1));
}

TEST(CSnziOptionsNorm, LeafShiftClampDerivedFromMaxThreads) {
  // The clamp must use the instance's own thread bound, not kMaxThreads: a
  // lock sized for 64 threads with leaf_shift = 8 would still collapse all
  // of its live indices onto leaf 0.
  CSnziOptions o;
  o.max_threads = 64;
  o.leaf_shift = 8;
  o.leaves = 64;
  C c(o);
  EXPECT_EQ(c.options().leaf_shift, 5u);  // (64-1) >> 5 != 0, >> 6 == 0
  EXPECT_NE(c.leaf_index_of(0), c.leaf_index_of(63));
}

TEST(CSnziOptionsNorm, SingleLeafKeepsExplicitShift) {
  CSnziOptions o;
  o.leaf_shift = 31;
  o.leaves = 1;  // explicitly requested collapse: no clamp
  C c(o);
  EXPECT_EQ(c.options().leaf_shift, 31u);
  EXPECT_EQ(c.leaf_index_of(kMaxThreads - 1), 0u);
}

TEST(CSnziOptionsNorm, AutoMappingResolution) {
  C plain;  // leaf_shift unset: auto resolves to the SMT clustering
  EXPECT_EQ(plain.options().topology_mapping, LeafMapping::kSmtCluster);
  ASSERT_NE(plain.options().topology, nullptr);

  CSnziOptions o;
  o.leaf_shift = 3;  // seed-style explicit shift keeps the static scheme
  C shifted(o);
  EXPECT_EQ(shifted.options().topology_mapping, LeafMapping::kStaticShift);
}

// --- plain SNZI wrapper -------------------------------------------------------

TEST(Snzi, BasicArriveDepartQuery) {
  Snzi<RealMemory> s;
  EXPECT_FALSE(s.query());
  auto t = s.arrive();
  EXPECT_TRUE(s.query());
  s.depart(t);
  EXPECT_FALSE(s.query());
}

TEST(Snzi, ManySequentialRounds) {
  Snzi<RealMemory> s;
  for (int round = 0; round < 100; ++round) {
    std::vector<Snzi<RealMemory>::Ticket> ts;
    for (int i = 0; i < 10; ++i) ts.push_back(s.arrive());
    EXPECT_TRUE(s.query());
    for (auto& t : ts) s.depart(t);
    EXPECT_FALSE(s.query());
  }
}

}  // namespace
}  // namespace oll
