#!/usr/bin/env sh
# bench_sim.sh — run the engine sweep benchmarks (sparse fast path vs the
# dense sim/ref baseline, the harness parallel variant, the re-platformed
# reactive-protocol sweep, the multi-broadcast traffic tier, the
# certified-propagation acceptance hot path (BenchmarkBVDeliver in
# internal/protocol), the large-scale tier: the
# 160×160 torus sweep, the 100k-node RGG single-run, and the
# million-node RGG single-run — plus the job-service tier, the
# end-to-end submit/run/aggregate/wait path of internal/jobs behind
# cmd/bftsimd and the sharded lease-protocol variant of the same grid)
# and emit BENCH_sim.json, the
# machine-readable record the CI bench job uploads and the repo checks in
# as the perf trajectory across PRs.
#
# When the checked-in BENCH_sim.json exists, per-benchmark *_vs_prev
# speedups are recorded against it and the run FAILS (the CI gates) if:
#   - BenchmarkSweep45Scenario, BenchmarkRGG100kRun or
#     BenchmarkMultiBroadcast regressed by more than 10%, or
#     BenchmarkRGG1MRun or BenchmarkJobThroughput by more than 15%,
#     or BenchmarkBVDeliver by more than 25% (generous: the op is
#     microseconds, so scheduler noise dominates — the 0.65 vs_prev
#     scare in PR 8's snapshot was exactly such noise), or the
#     executors=1 leg of BenchmarkShardedGridThroughput by more than
#     15% (disk-sensitive like JobThroughput; the absolute ≤1.10×
#     coordinator-overhead gate vs the unsharded run is asserted inside
#     the benchmark itself, so it holds on every run, not just vs the
#     snapshot), in ns/op, or
#   - BenchmarkBVDeliver, BenchmarkRGG100kRun, BenchmarkRGG1MRun,
#     BenchmarkMultiBroadcast or BenchmarkJobThroughput regressed by
#     more than 10% in allocs/op.
# Every benchmark runs -count 5 times; benchjson folds the repeats into
# median ns/op and allocs/op (plus their min/max spread), and the gates
# compare medians, so one noisy sample cannot trip them.
# ns/op gates only fire when the CPU model and the GOMAXPROCS count
# (benchjson's "procs") both match the snapshot; otherwise they are
# skipped with a warning and the *_vs_prev entries are advisory.
# Allocation gates are machine-independent; they guard the protocol
# layer's zero-alloc delivery contract, the large-scale fast path's
# steady-state reuse (PR 6 took RGG100kRun from ~200k allocs/op to
# ~130), the multi-broadcast machine, and the job service's per-point
# spec expansion (PR 9 cut it ~17% by killing the option-closure churn).
#
# Usage: scripts/bench_sim.sh [benchtime] [output]
#   benchtime  go test -benchtime value (default 10x: the sweep is
#              deterministic, so fixed iteration counts are comparable)
#   output     output path (default BENCH_sim.json)
# Scratch files (the previous snapshot, the benchjson binary, the raw
# bench output) go to $TMPDIR (default /tmp).
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-10x}"
OUT="${2:-BENCH_sim.json}"
COUNT=5
TMP="${TMPDIR:-/tmp}"

PREVFLAGS=""
if [ -f BENCH_sim.json ]; then
  cp BENCH_sim.json "$TMP/bench_prev.json"
  PREVFLAGS="-prev $TMP/bench_prev.json -max-regress BenchmarkSweep45Scenario:1.10,BenchmarkBVDeliver:1.25,BenchmarkBVDeliver:allocs:1.10,BenchmarkRGG100kRun:1.10,BenchmarkRGG100kRun:allocs:1.10,BenchmarkRGG1MRun:1.15,BenchmarkRGG1MRun:allocs:1.10,BenchmarkMultiBroadcast:1.10,BenchmarkMultiBroadcast:allocs:1.10,BenchmarkJobThroughput:1.15,BenchmarkJobThroughput:allocs:1.10,BenchmarkShardedGridThroughput/executors=1:1.15,BenchmarkShardedGridThroughput/executors=1:allocs:1.10"
fi

go build -o "$TMP/benchjson" ./cmd/benchjson

# No pipeline: POSIX sh has no pipefail, and a b.Fatal in a later
# benchmark must fail the script even when the earlier result lines
# already parsed cleanly.
RAW="$TMP/bench_raw.txt"
run_suite() {
  go test -run '^$' -timeout 1800s \
    -bench 'Benchmark(Sweep45(Sequential|Parallel|DenseRef|Runner|Scenario)|ReactiveSweep|Sweep160Scenario|RGG100kRun|MultiBroadcast|RGG25kMulti)$' \
    -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . > "$RAW"
  # The million-node run is ~3s/op: fixed at -benchtime 1x so the
  # large-scale tier stays within a minute instead of scaling with the
  # caller's benchtime. The run is deterministic, so one iteration is a
  # comparable sample.
  go test -run '^$' -timeout 1800s \
    -bench 'BenchmarkRGG1MRun$' \
    -benchmem -benchtime 1x -count "$COUNT" . >> "$RAW"
  # The certified-propagation acceptance hot path lives in
  # internal/protocol; its allocs/op line joins the same document so
  # the allocation gate can guard it.
  go test -run '^$' -timeout 600s \
    -bench 'BenchmarkBVDeliver$' \
    -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/protocol >> "$RAW"
  # The job-service tier: end-to-end submit → checkpointing run →
  # constant-memory aggregation → wait for a 64-point grid, the path
  # every bftsimd job takes — plus the sharded lease-protocol variant
  # of the same grid (local executors pulling 4-point leases), whose
  # coordinator-overhead gate runs inside the benchmark. Gated loosely
  # (15%): the checkpoint fsyncs make both disk-sensitive.
  go test -run '^$' -timeout 600s \
    -bench 'Benchmark(JobThroughput|ShardedGridThroughput)$' \
    -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/jobs >> "$RAW"
  cat "$RAW" >&2
}

run_suite
# Run-to-run variance on shared machines can exceed the 10% gate (the
# untouched DenseRef baseline has drifted >20% between runs of this
# container); a single retry separates persistent regressions from
# noise while keeping real >10% slowdowns fatal.
if ! "$TMP/benchjson" $PREVFLAGS < "$RAW" > "$OUT"; then
  echo "bench_sim.sh: regression gate tripped; rerunning once to rule out noise" >&2
  run_suite
  "$TMP/benchjson" $PREVFLAGS < "$RAW" > "$OUT"
fi
echo "wrote $OUT" >&2
