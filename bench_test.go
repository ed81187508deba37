package dbtouch_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dbtouch"
	"dbtouch/internal/experiments"
)

// Benchmarks regenerate every figure of the paper plus the ablations of
// DESIGN.md. Each bench reports the figure's headline quantity as custom
// metrics (virtual time, entries, etc.) alongside wall-clock cost of the
// simulation itself. Run the full paper-scale sweep with
//
//	go test -bench=. -benchmem
//
// or print the full series/tables with cmd/dbtouch-bench.
func benchScale() experiments.Scale {
	if testing.Short() {
		return experiments.Small()
	}
	// Paper scale is 10^7; benches use 10^6 so `go test -bench=.`
	// finishes in seconds. cmd/dbtouch-bench runs the full 10^7.
	return experiments.Scale{Rows: 1_000_000, ContestRows: 200_000, TableRows: 100_000}
}

// BenchmarkFig4aGestureSpeed regenerates Figure 4(a): entries returned
// vs gesture completion time (0.5s..4s slide over a 10cm column object).
func BenchmarkFig4aGestureSpeed(b *testing.B) {
	s := benchScale()
	var entries float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig4aGestureSpeed(s)
		entries = series.Points[len(series.Points)-1].Y
	}
	b.ReportMetric(entries, "entries@4s")
}

// BenchmarkFig4bObjectSize regenerates Figure 4(b): entries returned vs
// object size under progressive zoom-in at constant slide speed.
func BenchmarkFig4bObjectSize(b *testing.B) {
	s := benchScale()
	var entries float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig4bObjectSize(s)
		entries = series.Points[len(series.Points)-1].Y
	}
	b.ReportMetric(entries, "entries@20cm")
}

// BenchmarkContest regenerates the Appendix A exploration contest
// (dbTouch vs SQL DBMS time-to-insight on planted patterns).
func BenchmarkContest(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Contest(s)
	}
}

// BenchmarkSampleHierarchy regenerates Ext-1 (§2.6 sample-based storage).
func BenchmarkSampleHierarchy(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.SampleHierarchy(s)
	}
}

// BenchmarkPrefetch regenerates Ext-2 (§2.6 prefetching during pauses).
func BenchmarkPrefetch(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Prefetch(s)
	}
}

// BenchmarkCaching regenerates Ext-3 (§2.6 gesture-aware caching).
func BenchmarkCaching(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Caching(s)
	}
}

// BenchmarkSummaryK regenerates Ext-4 (§2.7 interactive summaries sweep).
func BenchmarkSummaryK(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.SummaryK(s)
	}
}

// BenchmarkRotateLayout regenerates Ext-5 (§2.8 incremental layout
// change).
func BenchmarkRotateLayout(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.RotateLayout(s)
	}
}

// BenchmarkJoinNonBlocking regenerates Ext-6 (§2.9 non-blocking joins).
func BenchmarkJoinNonBlocking(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.JoinNonBlocking(s)
	}
}

// BenchmarkAdaptiveOptimizer regenerates Ext-7 (§2.9 on-the-fly
// optimization).
func BenchmarkAdaptiveOptimizer(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.AdaptiveOptimizer(s)
	}
}

// BenchmarkRemote regenerates Ext-8 (§4 remote processing).
func BenchmarkRemote(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.RemoteProcessing(s)
	}
}

// BenchmarkZoomGranularity regenerates Ext-9 (§2.5 zoom granularity).
func BenchmarkZoomGranularity(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.ZoomGranularity(s)
	}
}

// BenchmarkIndexedSlide regenerates Ext-10 (§2.6 per-sample indexing).
func BenchmarkIndexedSlide(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.IndexedSlide(s)
	}
}

// BenchmarkConcurrentSessions measures the session layer: N sessions run
// the identical gesture script over one shared table, one goroutine per
// session, each with its own virtual clock, over shared immutable sample
// hierarchies. Two throughput metrics, two claims:
// touches/vsec (aggregate over virtual session time) is linear in N by
// construction and states that sessions never interfere on the
// virtual-time axis; touches/wallsec (and ns/op) carry the contention
// signal — a shared lock sneaking onto the span path degrades them, and
// on a multi-core host they scale with real parallelism. Before timing,
// each group's per-session result streams are asserted byte-identical to
// sequential execution of the same script.
func BenchmarkConcurrentSessions(b *testing.B) {
	s := benchScale()
	ref := experiments.NewSessionBench(s.Rows)
	seq := ref.Run(1, false)
	ref.Close()
	if len(seq.Streams[0]) == 0 {
		b.Fatal("sequential reference produced no results")
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			// Fixture outside the timer: data, matrix and the shared
			// sample hierarchy build once; iterations time session
			// creation + gesture execution only.
			fx := experiments.NewSessionBench(s.Rows)
			defer fx.Close()
			check := fx.Run(n, true)
			for i, stream := range check.Streams {
				if !reflect.DeepEqual(stream, seq.Streams[0]) {
					b.Fatalf("session %d stream differs from sequential execution", i)
				}
			}
			b.ResetTimer()
			var r experiments.ConcurrentSessionsResult
			for i := 0; i < b.N; i++ {
				r = fx.Run(n, true)
			}
			b.ReportMetric(r.AggThroughput, "touches/vsec")
			b.ReportMetric(r.WallThroughput, "touches/wallsec")
			b.ReportMetric(float64(r.Touches), "touches")
		})
	}
}

// BenchmarkTouchPipeline measures the raw kernel hot path: one slide
// touch through hit-test, recognition, mapping and a k=10 summary.
func BenchmarkTouchPipeline(b *testing.B) {
	db := dbtouch.Open()
	db.NewTable("t").Int("v", benchInts(1_000_000)).MustCreate()
	obj, err := db.NewColumnObject("t", "v", 2, 2, 2, 10)
	if err != nil {
		b.Fatal(err)
	}
	obj.Summarize(dbtouch.Avg, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.Slide(500 * time.Millisecond)
	}
	b.ReportMetric(float64(db.TouchLatency().Count())/float64(b.N), "touches/op")
}

func benchInts(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
