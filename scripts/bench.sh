#!/usr/bin/env bash
# bench.sh — run the kernel microbenchmarks and the end-to-end touch
# benchmarks, and emit BENCH_kernels.json at the repo root: the tracked
# perf baseline. Re-run after kernel work and commit the diff so
# regressions show up in review.
#
# Usage: scripts/bench.sh [benchtime [count [out]]]
#   benchtime  go test -benchtime per run (default 1s)
#   count      go test -count: runs per benchmark (default 5)
#   out        where the JSON goes (default BENCH_kernels.json)
#
# Each row keeps the median of its runs in "metrics" and their spread in
# "min" and "max": one run of a DRAM-bound row can move by 2x between
# back-to-back invocations, so a single number cannot show a kernel
# change smaller than that. The STREAM triad is measured before and
# after the pass; a drift between the two says the host's memory
# bandwidth moved while the rows ran.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-1s}"
count="${2:-5}"
out="${3:-BENCH_kernels.json}"
# go test appends -GOMAXPROCS to benchmark names (unless it is 1); strip
# it so a row keeps its name across hosts and the header carries the value.
procs="${GOMAXPROCS:-$(nproc)}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

stream() {
    echo "== host memory bandwidth (STREAM triad + read sweeps, $1 the pass)" >&2
    stream_out="$(go run scripts/stream.go)"
    echo "$stream_out" >&2
}
stream before
triad_before="$(echo "$stream_out" | awk '/^triad_mbps/ {print $2}')"
read_mbps="$(echo "$stream_out" | awk '/^read_mbps/ {print $2}')"
read_llc_mbps="$(echo "$stream_out" | awk '/^read_llc_mbps/ {print $2}')"
cpu_features="$(echo "$stream_out" | awk '/^features/ {print $2}')"

# -timeout 0: at the default count a package's pass outlasts go test's
# 10-minute default.
bench() { # package, pattern
    go test -run=NONE -bench="$2" -benchtime="$benchtime" -count="$count" -timeout=0 "$1" | tee -a "$raw" >&2
}

echo "== storage span kernels (benchtime=$benchtime, count=$count)" >&2
bench ./internal/storage/ '.'

echo "== a full-height filtered slide (scan_direct's shape: 4M rows, charged)" >&2
bench ./internal/operator/ 'BenchmarkFuseFilterSlide$'

echo "== end-to-end touch pipeline" >&2
bench . 'BenchmarkTouchPipeline$|BenchmarkFig4aGestureSpeed$'

echo "== live ingestion under exploration" >&2
bench ./internal/session/ 'BenchmarkAppendWhileTouching$'

echo "== wire serialization (binary vs JSON result frames)" >&2
bench ./internal/protocol/ 'BenchmarkResultFrame(Encode|Decode)(Binary|JSON)$'

echo "== a durable tap through /rpc (logged, sessions rotated every 5 000 taps)" >&2
bench ./internal/protocol/ 'BenchmarkRPCHandlerTapDurable$'

echo "== the gateway's /rpc hop (a tap forwarded to a loopback backend)" >&2
bench ./internal/gateway/ 'BenchmarkGatewayForwardTap$'

stream after
triad_after="$(echo "$stream_out" | awk '/^triad_mbps/ {print $2}')"

awk -v go_version="$(go version)" \
    -v goamd64="$(go env GOAMD64)" \
    -v procs="$procs" \
    -v benchtime="$benchtime" \
    -v count="$count" \
    -v cpu_features="${cpu_features:-}" \
    -v triad_before="${triad_before:-0}" \
    -v triad_after="${triad_after:-0}" \
    -v read_mbps="${read_mbps:-0}" \
    -v read_llc_mbps="${read_llc_mbps:-0}" '
# median of vals[1..n] (sorted in place), the mean of the middle two
# when n is even.
function median(vals, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = vals[i]
        for (j = i - 1; j >= 1 && vals[j] > x; j--) vals[j + 1] = vals[j]
        vals[j + 1] = x
    }
    return n % 2 ? vals[(n + 1) / 2] : (vals[n / 2] + vals[n / 2 + 1]) / 2
}
# one JSON number, to 10 significant digits.
function num(x) {
    return sprintf("%.10g", x)
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (procs != 1) sub("-" procs "$", "", name)
    if (!(name in runs)) order[nrows++] = name
    r = ++runs[name]
    iters[name, r] = $2 + 0
    for (i = 3; i + 1 <= NF; i += 2) {
        metric = $(i + 1)
        if (!((name, metric) in seen)) {
            seen[name, metric] = 1
            metrics[name] = metrics[name] (metrics[name] == "" ? "" : SUBSEP) metric
        }
        val[name, metric, r] = $i + 0
    }
}
END {
    printf "{\n"
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"goamd64\": \"%s\",\n", goamd64
    printf "  \"gomaxprocs\": %s,\n", procs
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"count\": %s,\n", count
    printf "  \"cpu_features\": \"%s\",\n", cpu_features
    printf "  \"stream_triad_mbps_before\": %s,\n", triad_before
    printf "  \"stream_triad_mbps_after\": %s,\n", triad_after
    printf "  \"stream_read_mbps\": %s,\n", read_mbps
    printf "  \"stream_read_llc_mbps\": %s,\n", read_llc_mbps
    printf "  \"benchmarks\": [\n"
    for (k = 0; k < nrows; k++) {
        name = order[k]
        n = runs[name]
        for (r = 1; r <= n; r++) v[r] = iters[name, r]
        line = sprintf("    {\"name\": \"%s\", \"runs\": %d, \"iters\": %s", name, n, num(median(v, n)))
        nm = split(metrics[name], ms, SUBSEP)
        med = ""; lo = ""; hi = ""
        for (m = 1; m <= nm; m++) {
            c = 0
            for (r = 1; r <= n; r++) if ((name, ms[m], r) in val) v[++c] = val[name, ms[m], r]
            sep = m > 1 ? ", " : ""
            med = med sep sprintf("\"%s\": %s", ms[m], num(median(v, c)))
            lo = lo sep sprintf("\"%s\": %s", ms[m], num(v[1]))
            hi = hi sep sprintf("\"%s\": %s", ms[m], num(v[c]))
        }
        printf "%s, \"metrics\": {%s}, \"min\": {%s}, \"max\": {%s}}%s\n", line, med, lo, hi, (k + 1 < nrows ? "," : "")
    }
    printf "  ]\n}\n"
}
' "$raw" > "$out"

echo "wrote $out" >&2
