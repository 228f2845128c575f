// Self-test of the benchmark's correctness oracle and seed handling.
//
// 1. A lock wrapper that skips the writer's exclusion must make the oracle
//    report failures (torn reads or lost updates) on write_mix and on
//    index_opt's optimistic traversals, while the real lock reports none on
//    the same traffic.
// 2. The same seed gives identical op streams (and checksum); another seed
//    changes them.
//
// Exit 0 when every check holds.  Run: build perfbench/ with CMake, then
// ./oracle_selftest (python3 perfbench/run.py --selftest does both).
#include <cstdio>
#include <vector>

#include "bench.hpp"

namespace pb = perfbench;

namespace {

// Writers skip the lock entirely but the stack still claims exclusion, so
// the oracle is armed: it must catch the resulting races.
struct NoWriterExclusion : pb::AnyStack {
  using pb::AnyStack::AnyStack;
  void write_acquire(std::size_t) {}
  void write_release(std::size_t) {}
};

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

template <typename Stack>
std::uint64_t oracle_failures(const pb::Workload& wl) {
  const pb::Streams streams = pb::make_streams(wl, 1);
  Stack stack(wl, wl.kind);
  std::vector<pb::Record> recs(wl.nodes());
  pb::Plan plan;
  plan.warmup_s = 0.05;
  plan.slices = 1;
  plan.slice_s = 0.5;
  const std::vector<int> cpus = pb::allowed_cpus();
  const std::vector<int> workers(cpus.size() > pb::kWorkers ? cpus.begin() + 1
                                                            : cpus.end(),
                                 cpus.end());
  const pb::WindowResult r = pb::run_window<false>(stack, recs, wl, streams,
                                                   workers, plan, pb::now_s());
  std::uint64_t torn = 0;
  for (const auto& w : r.workers) torn += w.torn;
  return torn + pb::final_state_failures(recs, r.writes());
}

}  // namespace

int main() {
  // index_opt's traffic and latch kind on a 3-node tree: on 4,681 nodes
  // racing writers meet readers too rarely for a short test.
  pb::Workload small_index = *pb::find_workload("index_opt");
  small_index.fanout = 2;
  small_index.depth = 1;
  for (const pb::Workload& wl : {*pb::find_workload("write_mix"), small_index}) {
    const char* name = wl.name.c_str();
    const std::uint64_t broken = oracle_failures<NoWriterExclusion>(wl);
    const std::uint64_t real = oracle_failures<pb::AnyStack>(wl);
    std::printf("%s: %llu failures without writer exclusion, %llu with\n",
                name, static_cast<unsigned long long>(broken),
                static_cast<unsigned long long>(real));
    check(broken > 0, "oracle reports a lock that skips writer exclusion");
    check(real == 0, "oracle passes the real lock");
  }

  for (const pb::Workload& wl : pb::workloads()) {
    const pb::Streams a = pb::make_streams(wl, 7);
    const pb::Streams b = pb::make_streams(wl, 7);
    const pb::Streams c = pb::make_streams(wl, 8);
    check(a.ops == b.ops && a.checksum == b.checksum,
          "same seed gives identical op streams");
    check(a.ops != c.ops && a.checksum != c.checksum,
          "another seed changes the op streams");
  }
  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
