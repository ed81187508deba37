package main

import (
	"math"
	"sort"
)

// The benchmark's vocabulary, defined once: workloads, end-to-end
// metrics with their bounds, and per-layer metrics. BENCHMARK.json,
// -compare and the smoke test follow these tables; README.md says which
// end-to-end metric each per-layer metric is expected to move.

// Workload names are final: later performance claims cite them.
const (
	wTouch  = "touch_direct"
	wScan   = "scan_direct"
	wFleet  = "fleet_durable"
	wStream = "stream_ingest"
)

// The whys of the last two also say where their own user-visible metrics
// went: BENCHMARK.json has one flat end_to_end list that every workload
// must report, never 0, so a metric only one workload has cannot be in it.
var workloadWhy = []struct{ name, why string }{
	{wTouch, "taps, short slides and zooms in summary mode over a 1M-row FLOAT column at one dbtouch-serve: kernel work is tiny, so protocol and session carry the cost and storage almost none"},
	{wScan, "full-height filtered aggregate slides (int sum/max, float sum, string count) over a 4M-row table at one dbtouch-serve: storage, operator, sample and core do the work and protocol little"},
	{wFleet, "touch_direct's script via dbtouch-gateway and 3 durable backends, then kill -9 failovers (checked on every run). Its failover_blackout_ms is in per_layer: end_to_end is one list for all workloads"},
	{wStream, "1000-row appends alternating with scan slides on a live table under a binary /stream reader. Its stream_touches_s and append_* metrics are in per_layer: end_to_end is one list for all workloads"},
}

// metricDef describes one metric. Bound is the share of the base value by
// which it may worsen before -compare says regressed; 0 means -compare
// does not gate it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of every workload sees, measured with
// tracing off from the client side or from the CPU clocks of the server
// processes. Each timing is taken per slice of the measured window, at
// reference speed (reference.go), and reported as the median of the
// slices (setup_s: of its cold starts). failed_share, the
// sixth, is the failed/attempted pair of every result: its bound is zero,
// absolutely.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: setupBound},
	{Name: "perform_ops_s", Unit: "1/s", Better: "higher", Bound: timingBound},
	{Name: "perform_p50_us", Unit: "us", Better: "lower", Bound: timingBound},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: timingBound},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: timingBound},
}

// ownEndToEnd are the user-visible metrics only one workload has. They
// are measured with tracing off like the five above and -compare gates
// them, but BENCHMARK.json lists them under per_layer (see workloadWhy).
var ownEndToEnd = []metricDef{
	{Name: "stream_touches_s", Unit: "1/s", Better: "higher", Bound: timingBound},
	{Name: "append_rows_s", Unit: "1/s", Better: "higher", Bound: timingBound},
	{Name: "append_p50_us", Unit: "us", Better: "lower", Bound: timingBound},
	{Name: "failover_blackout_ms", Unit: "ms", Better: "lower", Bound: timingBound},
}

// latencyKinds are the request classes client.p50_us.<kind> splits
// perform_p50_us into.
var latencyKinds = []string{"tap", "slide", "zoom", "fsum_int", "fmax_int", "fsum_float", "fcount_string", "scan_slide", "append"}

// perLayer lists the single-layer metrics. host.reference_speed (the
// host's speed over the window as a share of nominal) and client.* come
// from the untraced run, as measured; gateway.* counters from /gatewayz
// across the failover phase; everything else from the traced in-process
// pass. A workload reports the ones whose layer its requests reach.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	out := []metricDef{{Name: "host.reference_speed", Unit: "ratio", Better: "higher"}}
	out = append(out, lower("us", "client.perform_p50_raw_us", "client.perform_p99_us", "client.perform_p999_us")...)
	for _, k := range latencyKinds {
		out = append(out, lower("us", "client.p50_us."+k)...)
	}
	out = append(out, lower("us", "protocol.decode_request_us", "protocol.encode_response_us",
		"protocol.handler_self_us", "protocol.http_loopback_us")...)
	out = append(out, lower("B", "protocol.response_bytes")...)
	out = append(out, lower("count", "protocol.handler_allocs_per_op")...)
	out = append(out, lower("us", "protocol.binary_encode_us_per_result")...)
	out = append(out, lower("B", "protocol.binary_bytes_per_result")...)
	out = append(out, lower("count", "protocol.binary_allocs_per_frame")...)
	out = append(out, lower("us", "protocol.ndjson_encode_us_per_result")...)
	out = append(out, lower("B", "protocol.ndjson_bytes_per_result")...)
	out = append(out, lower("us", "protocol.binary_decode_us_per_result",
		"session.handle_self_us", "session.open_us")...)
	out = append(out, lower("ms", "session.resume_ms.h100", "session.resume_ms.h1000", "session.resume_ms.h10000")...)
	out = append(out, lower("us", "sessionlog.append_us", "sessionlog.compact_us")...)
	out = append(out, lower("count", "sessionlog.compactions")...)
	out = append(out, lower("ms", "sessionlog.load_ms.h10000")...)
	out = append(out, lower("B", "sessionlog.disk_bytes_per_op")...)
	out = append(out, lower("us", "gateway.hop_us")...)
	out = append(out, lower("count", "gateway.failovers", "gateway.resumes", "gateway.retries", "gateway.replayed")...)
	out = append(out, lower("us", "gateway.cpu_us_per_op", "core.perform_self_us")...)
	out = append(out, lower("count", "core.results_per_op", "core.allocs_per_op")...)
	out = append(out, lower("us", "gesture.synthesize_us")...)
	out = append(out, lower("count", "gesture.events_per_op")...)
	out = append(out, lower("ms", "sample.build_ms")...)
	out = append(out, metricDef{Name: "sample.level_mean", Unit: "level", Better: "higher"})
	out = append(out, lower("us", "sample.snapshot_extend_us")...)
	out = append(out, lower("B", "storage.kernel_bytes_per_op")...)
	out = append(out, lower("us", "storage.fused_us")...)
	out = append(out, metricDef{Name: "storage.fused_gb_s", Unit: "GB/s", Better: "higher"})
	out = append(out, lower("rows", "storage.span_rows_p50")...)
	out = append(out, lower("us", "storage.append_us_per_batch")...)
	out = append(out, lower("count", "storage.compactions")...)
	out = append(out, lower("us", "trace.residual_us")...)
	return append(out, ownEndToEnd...)
}

// value is one measured number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is name → measured value for one workload.
type metricSet map[string]value

// set stores a measured value under its registered name and unit.
func (s metricSet) set(name string, v float64) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range table {
			if def.Name == name {
				s[name] = value{Value: v, Unit: def.Unit}
				return
			}
		}
	}
	panic("unregistered metric " + name)
}

// names returns the set's metric names, sorted.
func (s metricSet) names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// median returns the middle value (the upper one of an even count's
// middle pair); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spread is the distance between the first and third quartile of v as a
// share of its median, quartiles as Python's statistics.quantiles(v, n=4)
// gives them; 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := quartile(2)
	if mid == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / mid)
}

// timingBound is the bound of every metric but setup_s: the 0.10 the
// issue fixed. Raw timings on the shared reference VM spread up to three
// times that between runs of the same code; one CPU, whole-pass slices and
// reference speed bring them under it (README, "Reference speed").
const timingBound = 0.10

// setupBound is setup_s's bound, the driver's widest, as its contract
// asks for set-up time. A cold start is a process spawn, a CSV load and a
// first touch, a second or less, five times a run: read against the scan
// reference load its run medians still spread 0.05-0.12 between runs of
// the same code (0.10-0.19 as measured), which no bound of 0.10 resolves.
const setupBound = 0.25
