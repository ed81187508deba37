package dbtouch

import (
	"time"

	"dbtouch/internal/ftdc"
)

// FlightRecorderOptions configures StartFlightRecorder. Zero values take
// the ftdc package defaults (1s interval, 300 samples/chunk, 64 MiB
// retention).
type FlightRecorderOptions struct {
	// Dir is the capture directory; created if absent. Required.
	Dir string
	// Interval is the sampling tick.
	Interval time.Duration
	// RetainBytes bounds the capture directory; oldest files are deleted
	// first.
	RetainBytes int64
	// ChunkSamples closes a compressed chunk after this many ticks.
	ChunkSamples int
}

// FlightRecorderStats counts what a recorder has captured and trimmed.
type FlightRecorderStats = ftdc.RecorderStats

// FlightRecorder is a running always-on telemetry capture: every
// manager/storage gauge sampled on a fixed tick into
// delta-of-delta compressed columnar chunks under a bounded disk budget.
// Decode a capture with cmd/dbtouch-ftdc.
type FlightRecorder struct {
	sampler *ftdc.Sampler
	rec     *ftdc.Recorder
}

// StartFlightRecorder begins capturing this instance's telemetry. The
// capture is instance-wide (the manager's gauges cover every session),
// regardless of which session handle starts it.
func (db *DB) StartFlightRecorder(opts FlightRecorderOptions) (*FlightRecorder, error) {
	rec, err := ftdc.NewRecorder(ftdc.Options{
		Dir:             opts.Dir,
		MaxChunkSamples: opts.ChunkSamples,
		RetainBytes:     opts.RetainBytes,
	})
	if err != nil {
		return nil, err
	}
	s := ftdc.NewSampler(rec, opts.Interval, db.manager.FTDCSample)
	s.Start()
	return &FlightRecorder{sampler: s, rec: rec}, nil
}

// Flush writes the partial chunk to disk, so the capture is current up
// to the last tick — wired to SIGHUP in dbtouch-serve for incident
// snapshots without a restart.
func (fr *FlightRecorder) Flush() error { return fr.rec.Flush() }

// Stats snapshots the recorder's own counters.
func (fr *FlightRecorder) Stats() FlightRecorderStats { return fr.rec.Stats() }

// Stop ends the capture, flushing the partial chunk.
func (fr *FlightRecorder) Stop() error {
	fr.sampler.Stop()
	return fr.rec.Close()
}
