#!/usr/bin/env sh
# Sanitizer lanes over the robustness-critical tests.
#
# ASan lane (default): the bulk-load pipeline, the fault-injection matrix,
# the durability layer (snapshots, WAL, crash recovery), the integrity
# checker and corruption fuzzers, the structural-index tests, the
# overload/cancellation lifecycle, and a short torture campaign — every
# code path that handles torn/corrupt input, label arithmetic, or
# mid-query unwinding.  The full suite under ASan is slow; these labels
# are where the sanitizer earns its keep.
#
# TSan lane (`thread`): the differential query fuzzer, the concurrent
# serving tests — readers racing loads and checkpoints, the worker pool,
# the caches, and shared ExecStats — plus the MVCC snapshot-isolation
# harness (DESIGN.md §15), which is load-bearing HERE: its oracle only
# proves epochs are handed off race-free if TSan watches the readers
# fingerprint pinned versions while the writer commits beside them.
# Also the structural-index tests, whose bulk label merge and
# range-scan counters are shared state, and the overload tests
# (admission racing shutdown, abandon-cancel).
#
# UBSan lane (`undefined`): the planner's selectivity/cost arithmetic
# (double math over row counts, bitmask subset walks), the structural
# interval label arithmetic, the query fuzzer and the integrity checker
# (which sums attacker-controlled label spans) — the code where a
# silent overflow would skew a plan rather than crash.
#
# Both ASan and TSan lanes also carry the planner label: statistics are
# folded on the commit path and read by concurrent planning threads.
#
# The sanitizers watch one run; scripts/repeat_lane.sh complements them
# by running the mvcc|concurrency|query|overload labels 20 times over the
# plain build, which is what flushes out rare interleavings.
#
# Usage: scripts/sanitize_lane.sh [address|thread|undefined] [build-dir]
#        (defaults: address, build-asan / build-tsan / build-ubsan)
set -eu

cd "$(dirname "$0")/.."
LANE=${1:-address}

case "$LANE" in
  address)
    BUILD_DIR=${2:-build-asan}
    LABELS='bulk|fault|durability|integrity|index|overload|planner|mvcc|torture'
    # Keep the sanitized torture leg short; scripts/torture.sh owns the
    # long campaign on the plain build.
    XMLREL_TORTURE_ITERS=${XMLREL_TORTURE_ITERS:-10}
    export XMLREL_TORTURE_ITERS
    ;;
  thread)
    BUILD_DIR=${2:-build-tsan}
    LABELS='query|concurrency|mvcc|index|overload|planner'
    ;;
  undefined)
    BUILD_DIR=${2:-build-ubsan}
    LABELS='planner|index|query|integrity|mvcc'
    ;;
  *)
    echo "usage: $0 [address|thread|undefined] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DXMLREL_SANITIZE="$LANE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L "$LABELS" \
      --output-on-failure -j "$(nproc)"
