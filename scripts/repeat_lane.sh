#!/usr/bin/env sh
# Repeat lane for the concurrency-sensitive tests.
#
# Runs every test labelled mvcc, concurrency, query or overload 20 times
# over the plain (tier-1) build and stops at the first failure.  These
# tests race readers against a committing writer, worker pools and
# shutdown, so a single green run says little; the lane should pass
# before a change to the read path, the commit path or the service lands.
#
# Usage: scripts/repeat_lane.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L 'mvcc|concurrency|query|overload' \
      --repeat until-fail:20 --output-on-failure -j "$(nproc)"
