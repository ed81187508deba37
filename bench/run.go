package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// runOpts selects what one workload run measures.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	clients  int
	bins     bins
	outDir   string
	// layers adds the traced in-process pass and the per-layer metrics.
	layers bool
}

// result is one workload's measured outcome.
type result struct {
	Workload      string    `json:"workload"`
	Correct       bool      `json:"correct"`
	Attempted     int       `json:"attempted"`
	Failed        int       `json:"failed"`
	Samples       int       `json:"samples"`
	WindowSeconds float64   `json:"window_seconds"`
	Sessions      int       `json:"sessions"`
	EndToEnd      metricSet `json:"end_to_end"`
	PerLayer      metricSet `json:"per_layer,omitempty"`
	// Repeats holds, for every metric -compare gates, the repeated
	// measurements behind its value: one per slice of the window, per
	// cold start, per failover probe. Their spread is the run's own noise.
	Repeats map[string][]float64 `json:"repeats"`
	// Shares are the acceptance ratios of the traced pass (not metrics):
	// which part of mean perform time each group of layers covers.
	Shares map[string]float64 `json:"shares,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// runWorkload generates the inputs, runs the untraced window against
// real server processes (for the fleet, then the failover phase),
// optionally the traced pass, and verifies outputs throughout. A
// verification failure comes back as an error with Correct false. Past
// the scale's deadline every server is killed, which turns whatever hung
// into failed requests and the run into an error.
func runWorkload(o runOpts) (res *result, err error) {
	res = &result{Workload: o.workload, EndToEnd: metricSet{}, PerLayer: metricSet{}, Repeats: map[string][]float64{}}
	var expired atomic.Bool
	deadline := time.AfterFunc(o.sc.deadline, func() {
		expired.Store(true)
		killAll()
	})
	defer func() {
		deadline.Stop()
		if expired.Load() {
			err = fmt.Errorf("deadline of %v reached, servers killed (then: %v)", o.sc.deadline, err)
		}
		if err != nil {
			res.Correct, res.Error = false, err.Error()
		}
	}()
	dir := filepath.Join(o.outDir, fmt.Sprintf("run-%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return res, err
	}
	in, err := generate(o.workload, o.seed, o.sc, abs, o.clients)
	if err != nil {
		return res, err
	}
	if err := in.buildControls(); err != nil {
		return res, err
	}

	// The scan reference load also reads the host's speed before each cold
	// start and each failover probe (both mostly compute); the window is
	// read against the workload's own reference load.
	scanRef, err := startReference(refScan, abs)
	if err != nil {
		return res, err
	}
	ref := scanRef
	if in.workload != wScan {
		if ref, err = startReference(refWire, abs); err != nil {
			return res, err
		}
		defer ref.stop()
	}
	// The window is shared out over the cold starts: where a server's
	// memory lands differs from start to start and moves a memory-bound op
	// by a tenth for as long as the process lives, so one server, however
	// long it is measured, is one draw.
	var tp *topology
	defer func() {
		if tp != nil {
			tp.stop()
		}
	}()
	w := &window{}
	var setups []float64
	for k := 0; k < o.sc.coldStarts; k++ {
		speed, err := scanRef.speedNow()
		if err != nil {
			return res, err
		}
		spawned := time.Now()
		tp, err = in.startTopology(o.bins, fmt.Sprint(k))
		if err != nil {
			return res, err
		}
		part, err := in.measure(tp, ref, spawned, o.seconds/float64(o.sc.coldStarts))
		if part != nil {
			w.add(part)
			res.Attempted, res.Failed = w.attempted, w.failed
		}
		if err != nil {
			return res, err
		}
		setups = append(setups, part.setup.Seconds()*speed)
		if k < o.sc.coldStarts-1 {
			tp.stop()
			tp = nil
		}
	}
	res.Samples, res.WindowSeconds, res.Sessions = len(w.samples), w.seconds, w.sessions

	var fo *failoverResult
	if in.fleet() {
		if fo, err = in.failoverPhase(tp, scanRef); err != nil {
			return res, err
		}
		res.Attempted += len(fo.blackoutsMS)
		res.Failed += fo.slow
	}
	tp.stop()
	tp = nil

	t := w.timings()
	if len(t.opsPerS) == 0 {
		return res, fmt.Errorf("no perform completed inside the %.1f s window", w.seconds)
	}
	// gated records a metric -compare gates: its value and the repeated
	// measurements behind it, whose spread is the run's own noise.
	gated := func(s metricSet, name string, v float64, repeats []float64) {
		s.set(name, v)
		res.Repeats[name] = repeats
	}
	e, l := res.EndToEnd, res.PerLayer
	gated(e, "setup_s", median(setups), setups)
	gated(e, "perform_ops_s", median(t.opsPerS), t.opsPerS)
	gated(e, "perform_p50_us", t.performP50, t.p50us)
	gated(e, "cpu_us_per_op", median(t.cpuPerOp), t.cpuPerOp)
	gated(e, "rss_peak_mb", float64(w.rss)/(1<<20), nil)
	l.set("host.reference_speed", median(t.speed))
	l.set("client.perform_p50_raw_us", micros(quantile(t.performs, 0.5)))
	res.Repeats["host.reference_speed"] = t.speed
	if in.live() {
		gated(l, "stream_touches_s", median(t.framesPerS), t.framesPerS)
		gated(l, "append_rows_s", median(t.appendRowsPerS), t.appendRowsPerS)
		gated(l, "append_p50_us", t.appendP50, t.appendP50us)
		l.set("storage.compactions", float64(w.compactions))
	}
	if in.fleet() {
		gated(l, "failover_blackout_ms", median(fo.blackoutsMS), fo.blackoutsMS)
		l.set("gateway.cpu_us_per_op", median(t.gatewayCPUPerOp))
		l.set("gateway.failovers", float64(fo.stats.Failovers))
		l.set("gateway.resumes", float64(fo.stats.Resumes))
		l.set("gateway.retries", float64(fo.stats.Retries))
		l.set("gateway.replayed", float64(fo.stats.ReplayedRequests))
	}
	l.set("client.perform_p99_us", micros(quantile(t.performs, 0.99)))
	l.set("client.perform_p999_us", micros(quantile(t.performs, 0.999)))
	for i, k := range latencyKinds {
		if len(t.byKind[i]) > 0 {
			l.set("client.p50_us."+k, micros(quantile(t.byKind[i], 0.5)))
		}
	}
	if !o.layers {
		res.Correct = true
		return res, nil
	}

	tr, err := in.tracedPass()
	if err != nil {
		return res, err
	}
	for name, v := range tr.metrics {
		l.set(name, v)
	}
	l.set("trace.residual_us", l["client.perform_p50_raw_us"].Value-tr.blockingSum)
	res.Shares = tr.shares
	if err := tr.write(filepath.Join(o.outDir, "trace-"+o.workload+".json")); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}
