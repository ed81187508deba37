#!/usr/bin/env bash
# bench.sh — run the kernel microbenchmarks and the end-to-end touch
# benchmarks, and emit BENCH_kernels.json at the repo root: the tracked
# perf baseline. Re-run after kernel work and commit the diff so
# regressions show up in review.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-1s}"
# go test appends -GOMAXPROCS to benchmark names (unless it is 1); strip
# it so a row keeps its name across hosts and the header carries the value.
procs="${GOMAXPROCS:-$(nproc)}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== host memory bandwidth (STREAM triad + read sweeps)" >&2
stream_out="$(go run scripts/stream.go)"
echo "$stream_out" >&2
triad_mbps="$(echo "$stream_out" | awk '/^triad_mbps/ {print $2}')"
read_mbps="$(echo "$stream_out" | awk '/^read_mbps/ {print $2}')"
read_llc_mbps="$(echo "$stream_out" | awk '/^read_llc_mbps/ {print $2}')"
cpu_features="$(echo "$stream_out" | awk '/^features/ {print $2}')"

echo "== storage span kernels (benchtime=$benchtime)" >&2
go test -run=NONE -bench='.' -benchtime="$benchtime" ./internal/storage/ | tee -a "$raw" >&2

echo "== a full-height filtered slide (scan_direct's shape: 4M rows, charged)" >&2
go test -run=NONE -bench='BenchmarkFuseFilterSlide$' -benchtime="$benchtime" ./internal/operator/ | tee -a "$raw" >&2

echo "== end-to-end touch pipeline" >&2
go test -run=NONE -bench='BenchmarkTouchPipeline$|BenchmarkFig4aGestureSpeed$' -benchtime="$benchtime" . | tee -a "$raw" >&2

echo "== live ingestion under exploration" >&2
go test -run=NONE -bench='BenchmarkAppendWhileTouching$' -benchtime="$benchtime" ./internal/session/ | tee -a "$raw" >&2

echo "== wire serialization (binary vs JSON result frames)" >&2
go test -run=NONE -bench='BenchmarkResultFrame(Encode|Decode)(Binary|JSON)$' -benchtime="$benchtime" ./internal/protocol/ | tee -a "$raw" >&2

awk -v go_version="$(go version)" \
    -v goamd64="$(go env GOAMD64)" \
    -v procs="$procs" \
    -v cpu_features="${cpu_features:-}" \
    -v triad_mbps="${triad_mbps:-0}" \
    -v read_mbps="${read_mbps:-0}" \
    -v read_llc_mbps="${read_llc_mbps:-0}" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (procs != 1) sub("-" procs "$", "", name)
    line = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", name, $2)
    m = 0
    for (i = 3; i + 1 <= NF; i += 2) {
        if (m++) line = line ", "
        line = line sprintf("\"%s\": %s", $(i + 1), $i)
    }
    benches[n++] = line "}}"
}
END {
    printf "{\n"
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"goamd64\": \"%s\",\n", goamd64
    printf "  \"gomaxprocs\": %s,\n", procs
    printf "  \"cpu_features\": \"%s\",\n", cpu_features
    printf "  \"stream_triad_mbps\": %s,\n", triad_mbps
    printf "  \"stream_read_mbps\": %s,\n", read_mbps
    printf "  \"stream_read_llc_mbps\": %s,\n", read_llc_mbps
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++)
        printf "%s%s\n", benches[i], (i + 1 < n ? "," : "")
    printf "  ]\n}\n"
}
' "$raw" > BENCH_kernels.json

echo "wrote BENCH_kernels.json" >&2
