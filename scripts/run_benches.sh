#!/usr/bin/env bash
# Builds the Release micro-benchmark suite and records it as JSON, giving
# each PR a comparable perf snapshot (BENCH_micro.json at the repo root).
#
# Usage: scripts/run_benches.sh [build-dir] [benchmark-filter]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
filter="${2:-.}"

# RAFIKI_NATIVE: the snapshot should measure the best codegen this host can
# run, not the portable-baseline ISA. GEMM picks its AVX2+FMA path by CPUID
# in every build (recorded as `gemm_path` in the JSON context), but the
# non-GEMM loops (the SIMD-reduction Cholesky, SGD) only get wide vectors
# from this flag. Comparisons stay apples-to-apples because the checked-in
# baseline is produced by this same script on a host with the same
# `num_cpus` and `gemm_path` (compare_benches.py refuses the rest).
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
  -DRAFIKI_NATIVE=ON
cmake --build "$build_dir" -j --target micro_benchmarks

# Targets are declared under build/bench-build but binaries land in
# build/bench (see the root CMakeLists).
"$build_dir/bench/micro_benchmarks" \
  --benchmark_filter="$filter" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_micro.json" \
  --benchmark_out_format=json

echo "Wrote $repo_root/BENCH_micro.json"
