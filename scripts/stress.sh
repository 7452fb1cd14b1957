#!/usr/bin/env bash
# Repeats the concurrent test suites until one fails: the HTTP server and
# client, the gateway, the replicated serving plane, the inference runtime,
# the load generator, the RPC bus, the reactor, and the tuning protocol's
# studies and failure recovery. Run it in a tree that is already built, for
# example a sanitizer build, to hunt interleavings that a single pass rarely
# hits.
#
# Usage: scripts/stress.sh BUILD_DIR [N]
#   N  repeats per test (default 5); the script exits non-zero on the first
#      failing repeat.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 BUILD_DIR [N]" >&2
  exit 2
fi
build_dir="$1"
repeats="${2:-5}"
if [[ ! -f "$build_dir/CTestTestfile.cmake" ]]; then
  echo "no test tree at $build_dir (configure and build it first)" >&2
  exit 1
fi

cd "$build_dir"
ctest --output-on-failure --repeat "until-fail:$repeats" -j3 \
  -R 'http_|gateway|replica|inference|loadgen|rpc_bus|event_loop|study|failure_recovery'
