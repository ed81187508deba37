package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
)

// Layer probes: per-layer numbers that are not one span per request —
// session set-up, sample construction, resume against history length,
// the stream codecs. They run after the traced ops, on the same twins.

// probeRepeats is how many times a one-off probe repeats for its median.
const probeRepeats = 3

func (in *inputs) probeLayers(tw *twins, res *traceResult, stats []opStats, nSetup int) error {
	m := res.metrics
	if tw.logDir != "" {
		// Space per user op: everything the traced session left on disk.
		m["sessionlog.disk_bytes_per_op"] = float64(dirBytes(tw.logDir)) / float64(len(stats))
	}
	if err := in.probeOpen(tw, m); err != nil {
		return err
	}
	if err := in.probeSampleBuild(tw, m); err != nil {
		return err
	}
	if in.fleet() {
		if err := in.probeResume(m); err != nil {
			return err
		}
	}
	if in.live() {
		return probeCodecs(m, stats[nSetup:])
	}
	return nil
}

// probeOpen times opening a session and running the script's set-up
// (open + create + configure) through Manager.HandleRequest.
func (in *inputs) probeOpen(tw *twins, m map[string]float64) error {
	gs := in.scripts[0]
	var took []float64
	for k := 0; k < 7*probeRepeats; k++ {
		name := fmt.Sprintf("open-probe-%d", k)
		var d time.Duration
		for i := 0; i <= len(gs.setup); i++ {
			_, req := sessionRequest(gs, name, i)
			if req.Op == protocol.OpAppend {
				continue
			}
			start := time.Now()
			resp := tw.mgr.HandleRequest(req)
			d += time.Since(start)
			if !resp.OK {
				return fmt.Errorf("open probe: %s: %s", req.Op, resp.Error)
			}
		}
		took = append(took, micros(d))
		tw.mgr.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpEvict, Session: name})
	}
	m["session.open_us"] = median(took)
	return nil
}

// probeSampleBuild times sample.BuildShared over each column the
// workload's objects sit on, summed: the first-touch cost inside setup_s.
func (in *inputs) probeSampleBuild(tw *twins, m map[string]float64) error {
	var cols []*storage.Column
	switch {
	case in.live():
		col, err := tw.live.Snapshot().Matrix.Column(liveValueCol)
		if err != nil {
			return err
		}
		cols = append(cols, col)
	case in.workload == wScan:
		for _, o := range scanObjects {
			col, err := in.static.matrix.Column(in.static.matrix.ColumnIndex(o.col))
			if err != nil {
				return err
			}
			cols = append(cols, col)
		}
	default:
		col, err := in.static.matrix.Column(0)
		if err != nil {
			return err
		}
		cols = append(cols, col)
	}
	levels := core.DefaultConfig().SampleLevels
	var took []float64
	for k := 0; k < probeRepeats; k++ {
		start := time.Now()
		for _, col := range cols {
			if _, err := sample.BuildShared(col, levels); err != nil {
				return err
			}
		}
		took = append(took, float64(time.Since(start))/float64(time.Millisecond))
	}
	m["sample.build_ms"] = median(took)
	return nil
}

// probeResume measures Manager.Resume (and, at the longest history,
// Store.LoadSession alone) against logged-history length: one manager
// writes the history, a fresh manager over the same directory resumes it
// — what a failover backend does.
func (in *inputs) probeResume(m map[string]float64) error {
	gs := in.scripts[0]
	for _, h := range in.sc.resumeHistories {
		dir := filepath.Join(in.dir, fmt.Sprintf("resume-h%d", h))
		tw := &twins{in: in}
		writer, _, err := tw.durableManager(dir)
		if err != nil {
			tw.close()
			return err
		}
		const name = "resume-probe"
		for i := 0; i < h; i++ {
			_, req := sessionRequest(gs, name, i)
			if resp := writer.HandleRequest(req); !resp.OK {
				tw.close()
				return fmt.Errorf("resume probe h=%d request %d: %s", h, i, resp.Error)
			}
		}
		tw.close() // the writer "dies"; its log stays
		var resume, load []float64
		for k := 0; k < probeRepeats; k++ {
			tw := &twins{in: in}
			reader, store, err := tw.durableManager(dir)
			if err != nil {
				tw.close()
				return err
			}
			start := time.Now()
			_, err = store.LoadSession(name)
			load = append(load, float64(time.Since(start))/float64(time.Millisecond))
			if err == nil {
				start = time.Now()
				var n int
				n, err = reader.Resume(name)
				resume = append(resume, float64(time.Since(start))/float64(time.Millisecond))
				if err == nil && n != h {
					err = fmt.Errorf("replayed %d requests, logged %d", n, h)
				}
			}
			tw.close()
			if err != nil {
				return fmt.Errorf("resume probe h=%d: %w", h, err)
			}
		}
		m[fmt.Sprintf("session.resume_ms.h%d", h)] = median(resume)
		if h == 10000 {
			m["sessionlog.load_ms.h10000"] = median(load)
		}
	}
	return nil
}

// probeCodecs encodes each traced perform's results as one binary frame
// and as NDJSON lines, and decodes the binary frame back: the per-result
// cost and size of the two /stream encodings on the workload's own
// results.
func probeCodecs(m map[string]float64, stats []opStats) error {
	var binEnc, binBytes, binAllocs, ndEnc, ndBytes, binDec []float64
	var buf []byte
	var nd bytes.Buffer
	for i := range stats {
		results := stats[i].results
		if len(results) == 0 {
			continue
		}
		n := float64(len(results))
		m0 := mallocs()
		start := time.Now()
		buf = protocol.AppendBinaryResults(buf[:0], "trace", 0, results)
		d := time.Since(start)
		binAllocs = append(binAllocs, float64(mallocs()-m0))
		binEnc = append(binEnc, micros(d)/n)
		binBytes = append(binBytes, float64(len(buf))/n)

		nd.Reset()
		enc := json.NewEncoder(&nd)
		start = time.Now()
		for _, r := range results {
			if err := enc.Encode(protocol.FrameResult(r)); err != nil {
				return err
			}
		}
		ndEnc = append(ndEnc, micros(time.Since(start))/n)
		ndBytes = append(ndBytes, float64(nd.Len())/n)

		sc := protocol.NewBinaryScanner(bytes.NewReader(buf))
		decoded := 0
		start = time.Now()
		for {
			if _, err := sc.Next(); err != nil {
				if err != io.EOF {
					return fmt.Errorf("decoding a binary frame the encoder produced: %w", err)
				}
				break
			}
			decoded++
		}
		binDec = append(binDec, micros(time.Since(start))/n)
		if decoded != len(results) {
			return fmt.Errorf("binary frame round trip returned %d of %d results", decoded, len(results))
		}
	}
	m["protocol.binary_encode_us_per_result"] = median(binEnc)
	m["protocol.binary_bytes_per_result"] = median(binBytes)
	m["protocol.binary_allocs_per_frame"] = median(binAllocs)
	m["protocol.ndjson_encode_us_per_result"] = median(ndEnc)
	m["protocol.ndjson_bytes_per_result"] = median(ndBytes)
	m["protocol.binary_decode_us_per_result"] = median(binDec)
	return nil
}
