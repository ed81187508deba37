// Package experiments regenerates every figure of the paper's evaluation
// plus the ablation studies DESIGN.md calls out. Both the benchmark
// binary (cmd/dbtouch-bench) and the testing.B benches (bench_test.go)
// drive these functions, so the printed series stay identical across
// entry points.
package experiments

import (
	"time"

	"dbtouch"
	"dbtouch/internal/datagen"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/metrics"
)

// Scale sizes the experiment workloads. Full reproduces the paper
// (10^7-value columns); tests use Small to stay fast.
type Scale struct {
	// Rows is the column length for the figure experiments.
	Rows int
	// ContestRows is the data size for the exploration contest.
	ContestRows int
	// TableRows is the table size for the layout-rotation experiment.
	TableRows int
}

// Full is the paper-scale configuration: a column of 10^7 integers.
func Full() Scale {
	return Scale{Rows: 10_000_000, ContestRows: 1_000_000, TableRows: 1_000_000}
}

// Small keeps unit tests fast while preserving every mechanism.
func Small() Scale {
	return Scale{Rows: 200_000, ContestRows: 50_000, TableRows: 20_000}
}

// column materializes the standard experiment column: uniform integers,
// deterministic seed.
func (s Scale) columnData() []int64 {
	return datagen.Ints(datagen.Spec{N: s.Rows, Seed: 42, Min: 0, Max: 1000})
}

// newDB opens a paper-configured dbTouch instance over the standard
// column, placing a 2x`heightCm` object at (2,2).
func (s Scale) newDB(heightCm float64, opts ...dbtouch.Option) (*dbtouch.DB, *dbtouch.Object) {
	return s.newDBWith(s.columnData(), heightCm, opts...)
}

// newDBWith is newDB over pre-generated column data. Experiments that
// reset the engine between data points reuse one generated column — the
// generator is deterministic, so the data is identical either way and
// columns adopt the slice without copying.
func (s Scale) newDBWith(data []int64, heightCm float64, opts ...dbtouch.Option) (*dbtouch.DB, *dbtouch.Object) {
	db := dbtouch.Open(opts...)
	db.NewTable("t").Int("v", data).MustCreate()
	obj, err := db.NewColumnObject("t", "v", 2, 2, 2, heightCm)
	if err != nil {
		panic(err)
	}
	obj.Summarize(dbtouch.Avg, 10)
	return db, obj
}

// countKind counts results of one kind.
func countKind(results []dbtouch.Result, kind dbtouch.ResultKind) int {
	n := 0
	for _, r := range results {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// Fig4aGestureSpeed reproduces Figure 4(a): the number of data entries
// returned while completing a top-to-bottom slide (interactive summaries,
// avg, k=10) over a 10 cm object representing 10^7 integers, as the
// gesture completion time varies from 0.5 s to 4 s. Slower slides let the
// dispatcher deliver more distinct touch locations, so more entries are
// processed — the user drills into detail by slowing down.
func Fig4aGestureSpeed(s Scale) *metrics.Series {
	series := &metrics.Series{
		Name:   "Figure 4(a): entries returned vs gesture completion time",
		XLabel: "gesture-secs",
		YLabel: "entries",
	}
	data := s.columnData()
	for _, secs := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
		_, obj := s.newDBWith(data, 10)
		results := obj.Slide(time.Duration(secs * float64(time.Second)))
		series.Add(secs, float64(countKind(results, dbtouch.SummaryValue)))
	}
	return series
}

// Fig4bObjectSize reproduces Figure 4(b): entries returned vs object
// size. The object starts at 2.5 cm; each step applies a zoom-in gesture
// doubling its size and slides at the same physical speed (so the slide
// takes double the time, exactly the paper's setup). Larger objects admit
// more touch positions and thus more entries.
func Fig4bObjectSize(s Scale) *metrics.Series {
	series := &metrics.Series{
		Name:   "Figure 4(b): entries returned vs object size",
		XLabel: "object-cm",
		YLabel: "entries",
	}
	const speedCmPerSec = 5.0
	_, obj := s.newDB(2.5, dbtouch.WithScreen(15, 30))
	for step := 0; step < 4; step++ {
		obj.MoveTo(2, 2) // keep the zoomed object fully on screen
		_, _, _, h := obj.Frame()
		dur := time.Duration(h / speedCmPerSec * float64(time.Second))
		results := obj.Slide(dur)
		series.Add(h, float64(countKind(results, dbtouch.SummaryValue)))
		obj.ZoomIn(2)
	}
	return series
}

// ZoomGranularity (extension Ext-9) quantifies §2.5: the object size
// bounds the distinct touch positions and thus the tuples a slide can
// address; zooming in raises the bound. The slide moves slowly enough
// (2 s per cm) that the digitizer resolution, not the slide duration, is
// the binding constraint at every size.
func ZoomGranularity(s Scale) *metrics.Series {
	series := &metrics.Series{
		Name:   "Ext-9: distinct tuples addressable per full slide vs zoom level",
		XLabel: "object-cm",
		YLabel: "distinct-tuples",
	}
	_, obj := s.newDB(1.25, dbtouch.WithScreen(15, 30))
	for step := 0; step < 5; step++ {
		obj.MoveTo(2, 2)
		_, _, _, h := obj.Frame()
		dur := time.Duration(h * 2 * float64(time.Second))
		results := obj.Slide(dur)
		distinct := make(map[int]bool)
		for _, r := range results {
			if r.Kind == dbtouch.SummaryValue {
				distinct[r.TupleID] = true
			}
		}
		series.Add(h, float64(len(distinct)))
		obj.ZoomIn(2)
	}
	return series
}

// heavyIO is the cost model used by the ablation experiments: slower
// storage (flash-class cold fetches) and a fast UI so data-access costs —
// the thing the ablations isolate — dominate per-touch latency.
func heavyIO() iomodel.Params {
	return iomodel.Params{
		BlockValues: 1024,
		ColdLatency: 2 * time.Millisecond,
		WarmLatency: 20 * time.Nanosecond,
		WarmBudget:  4096,
	}
}

// ablationConfig builds a config with heavy I/O and a 5ms UI loop.
func ablationConfig(mutate func(*dbtouch.Config)) dbtouch.Option {
	return func(c *dbtouch.Config) {
		c.UIOverhead = 5 * time.Millisecond
		c.IO = heavyIO()
		if mutate != nil {
			mutate(c)
		}
	}
}
