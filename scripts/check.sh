#!/usr/bin/env bash
# Repo verification gate: the tier-1 build + test pass (ROADMAP.md), then a
# ThreadSanitizer build running the concurrency suites (a lock library must
# be TSan-clean) and an UndefinedBehaviorSanitizer build running the same
# suites (the sim cost model and the metalock protocols leans on well-defined
# atomics and arithmetic).  CI runs exactly this script; run it locally
# before pushing (or with --tier1-only for a quick pass).
#
# Usage: scripts/check.sh [--tier1-only]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "==> tier-1: configure + build"
cmake -B build -S .
cmake --build build -j "${JOBS}"

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==> bench smoke: trajectory gate (scripts/bench_smoke.py)"
python3 scripts/bench_smoke.py

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "==> OK (tier-1 only)"
  exit 0
fi

echo "==> observability: trace export + validation (DESIGN.md §9)"
TRACE_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "${TRACE_TMP}"' EXIT
./build/bench/fig5a_read_only --mode=sim --threads=16 --acquires=200 \
  --locks=goll,foll,roll --trace="${TRACE_TMP}" >/dev/null
python3 scripts/validate_trace.py "${TRACE_TMP}"

echo "==> observability: optimistic-read trace slices (DESIGN.md §13)"
./build/bench/index_traversal --mode=sim --threads=8 --acquires=80 \
  --locks=opt-goll --read_pct=95 --trace="${TRACE_TMP}" >/dev/null
# opt_read slices + opt_validation_fail instants prove the optimistic path
# ran; write_acquire proves the writers that invalidate it ran too.  (No
# read_acquire expected: uncontended validation succeeds, so nothing falls
# back to the pessimistic shared path at this size.)
python3 scripts/validate_trace.py "${TRACE_TMP}" \
  --expect-names=opt_read,opt_validation_fail,write_acquire

echo "==> observability: telemetry exporter + metrics validation (§14)"
METRICS_TMP="$(mktemp --suffix=.prom)"
trap 'rm -f "${TRACE_TMP}" "${METRICS_TMP}" "${METRICS_TMP}.jsonl"' EXIT
./build/bench/fig5a_read_only --mode=sim --threads=8 --acquires=400 \
  --locks=goll,foll --telemetry_interval_ms=20 \
  --metrics_out="${METRICS_TMP}" >/dev/null
python3 scripts/validate_metrics.py "${METRICS_TMP}"

echo "==> observability: OLL_TRACE=0 OLL_REGISTRY=0 build (hooks compiled out)"
# One tree compiles both flags' stub halves and smoke-runs the suites
# that exercise them.
cmake -B build-noobs -S . -DOLL_TRACE=0 -DOLL_REGISTRY=0 \
  -DOLL_ENABLE_BENCH=OFF -DOLL_ENABLE_EXAMPLES=OFF
NOOBS_TESTS=(
  lock_conformance_test histogram_test versioned_lock_test
  lock_registry_test telemetry_test
)
cmake --build build-noobs -j "${JOBS}" --target "${NOOBS_TESTS[@]}"
for t in "${NOOBS_TESTS[@]}"; do
  "./build-noobs/tests/${t}" >/dev/null
done
echo "==> OLL_TRACE=0 OLL_REGISTRY=0 build + smoke OK"

echo "==> robustness: OLL_PARK_FUTEX=0 build (condvar fallback, §16.1)"
# The hashed mutex+condvar bucket table must pass the same substrate and
# conformance checks as the futex backend (this is what non-Linux and the
# aarch64 CI leg run).
cmake -B build-noparkfutex -S . -DOLL_PARK_FUTEX=0 \
  -DOLL_ENABLE_BENCH=OFF -DOLL_ENABLE_EXAMPLES=OFF
cmake --build build-noparkfutex -j "${JOBS}" --target park_test \
  lock_conformance_test
./build-noparkfutex/tests/park_test >/dev/null
./build-noparkfutex/tests/lock_conformance_test \
  --gtest_filter='AllLocks/ParkPolicyConformance.*' >/dev/null
echo "==> OLL_PARK_FUTEX=0 build + smoke OK"

# snzi_stress_test (CloseNeverStrandsStickySurplus,
# CloseDrainsUnderSustainedStickyArrivals) and csnzi_property_test check
# the C-SNZI's one-RMW departures and sticky/decay arrival policy as real
# happens-before edges (DESIGN.md §8, §12.2).
# litmus_test is the memory-order audit's harness (DESIGN.md §12): its
# fixture arms the chaos fault profile itself, so under TSan each
# release/acquire downgrade is checked as a real happens-before edge
# against a fault-sheared schedule.
TSAN_SUITES=(
  lock_stress_test race_fuzz_test snzi_stress_test bravo_test
  csnzi_test csnzi_property_test lock_conformance_test foll_roll_test goll_test ksuh_test
  wait_queue_test mutex_test metalock_test orig_snzi_test trace_test
  histogram_test timed_lock_test litmus_test versioned_lock_test
  lock_registry_test telemetry_test mechanism_test park_test
  lock_stats_test
)

echo "==> tsan: configure + build (tests only)"
cmake -B build-tsan -S . -DOLL_SANITIZE=thread \
  -DOLL_ENABLE_BENCH=OFF -DOLL_ENABLE_EXAMPLES=OFF
cmake --build build-tsan -j "${JOBS}" --target "${TSAN_SUITES[@]}"

echo "==> tsan: concurrency suites"
# halt_on_error so the first race fails the run instead of scrolling past.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
for t in "${TSAN_SUITES[@]}"; do
  echo "==> tsan: ${t}"
  "./build-tsan/tests/${t}"
done

echo "==> tsan: chaos-profile conformance (relaxed-order sweep)"
# The memory-order relaxations must hold when the fault layer shears the
# windows open: re-run the conformance + timed suites with chaos injection
# armed for the whole process.
OLL_TEST_FAULT_PROFILE=chaos ./build-tsan/tests/lock_conformance_test >/dev/null
OLL_TEST_FAULT_PROFILE=chaos ./build-tsan/tests/timed_lock_test >/dev/null
echo "==> tsan: chaos-profile conformance OK"

echo "==> tsan: fault_fuzz smoke (fixed seeds, ~30s)"
cmake --build build-tsan -j "${JOBS}" --target fault_fuzz
./build-tsan/tests/fault_fuzz --locks=goll,foll,roll,bravo-goll,opt-goll \
  --profiles=cas,chaos --seeds=1,42 --read_pcts=50,95 --iters=80 \
  --stall_limit_s=120

echo "==> tsan: fault_fuzz park sweep (lost/spurious wakes under TSan, §16.4)"
# The consume-or-unpark pairing's release/acquire edges must be genuine
# happens-before under injected spurious and lost wakes; the end-of-run
# parked-census oracle also runs here.
./build-tsan/tests/fault_fuzz --locks=goll,foll,roll,bravo-goll,opt-goll \
  --profiles=park-spurious,park-lost,park-chaos --seeds=1,42 \
  --read_pcts=50,95 --iters=80 --stall_limit_s=120

echo "==> ubsan: configure + build (tests only)"
cmake -B build-ubsan -S . -DOLL_SANITIZE=undefined \
  -DOLL_ENABLE_BENCH=OFF -DOLL_ENABLE_EXAMPLES=OFF
cmake --build build-ubsan -j "${JOBS}" --target "${TSAN_SUITES[@]}"

echo "==> ubsan: concurrency suites"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
for t in "${TSAN_SUITES[@]}"; do
  echo "==> ubsan: ${t}"
  "./build-ubsan/tests/${t}"
done

echo "==> OK"
