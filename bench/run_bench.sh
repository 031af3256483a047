#!/usr/bin/env sh
# Runs the micro-benchmark suite and writes machine-readable results to
# BENCH_micro.json at the repo root (or the first non-flag argument).
#
# The bench binary is taken from $BENCH_BUILD_DIR (default ./build-rel, the
# conventional Release tree: cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
# && cmake --build build-rel -j --target bench_micro).
#
# Baselines recorded from unoptimized binaries are worse than none: every
# later Release run looks like a massive improvement and real regressions
# hide inside the margin. The binary stamps its configure-time build type
# into the JSON context (swarmfuzz_build_type); this script probes it and
# refuses anything but Release unless --allow-debug is passed.
#
# Each benchmark runs BENCH_REPETITIONS times (default 3): this host class
# is noisy enough that a single run proves nothing, and compare_bench.py
# reduces the repetitions to their median.
#
# Compare against a saved baseline with bench/compare_bench.py to catch
# hot-path regressions; the headline series are BM_FullMission, BM_FuzzMission,
# BM_FuzzMissionParallel (whole-mission wall time, serial and eval-pooled)
# and the large-swarm scaling series BM_ControllerEvaluation/BM_NeighborQuery.
# The intra-tick threaded series (BM_FullMissionSimThreads,
# BM_ControllerEvaluationThreaded) record num_threads_available in the JSON
# context; compare_bench.py gates them only when both runs had more than one
# hardware thread — on a 1-cpu host they measure handoff overhead, not
# scaling, and are annotated instead of gated.
set -eu

repo_root="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
build_dir="${BENCH_BUILD_DIR:-$repo_root/build-rel}"
bench_bin="$build_dir/bench/bench_micro"

allow_debug=0
out="$repo_root/BENCH_micro.json"
for arg in "$@"; do
  case "$arg" in
    --allow-debug) allow_debug=1 ;;
    --*) echo "error: unknown flag $arg" >&2; exit 64 ;;
    *) out="$arg" ;;
  esac
done

if [ ! -x "$bench_bin" ]; then
  echo "error: $bench_bin not found; build first:" >&2
  echo "  cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release" >&2
  echo "  cmake --build build-rel -j --target bench_micro" >&2
  exit 1
fi

# Probe the binary's stamped build type without running any benchmark.
build_type="$("$bench_bin" --swarmfuzz_print_build_type 2>/dev/null || true)"
if [ "$build_type" != "Release" ] && [ "$allow_debug" -ne 1 ]; then
  echo "error: $bench_bin was configured as '${build_type:-unknown}', not Release." >&2
  echo "Recording a baseline from an unoptimized build makes later comparisons" >&2
  echo "meaningless. Rebuild with -DCMAKE_BUILD_TYPE=Release, or pass" >&2
  echo "--allow-debug to record anyway (never commit such a baseline)." >&2
  exit 1
fi

"$bench_bin" \
  --benchmark_format=json \
  --benchmark_repetitions="${BENCH_REPETITIONS:-3}" \
  --benchmark_out="$out" \
  --benchmark_out_format=json

echo "wrote $out (swarmfuzz_build_type=${build_type:-unknown})"
