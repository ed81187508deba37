package session

import (
	"fmt"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
)

// BenchmarkAppendWhileTouching measures ingestion throughput under
// exploration pressure: the timed loop appends 256-row batches while a
// second goroutine continuously slides a session over the table — every
// batch forces a snapshot publication, and every slide batch a
// repin plus incremental statistics extension. This is the live-
// ingestion cost the roofline doc cites; bench.sh records it in
// BENCH_kernels.json. "steady" retains 100 000 rows, so a run mostly
// extends; "compacting" retains 4 096, so every 16th batch compacts the
// table and restarts the toucher's sample tails (100 iterations hold six
// compactions; the count is reported).
func BenchmarkAppendWhileTouching(b *testing.B) {
	b.Run("steady", func(b *testing.B) { benchAppendWhileTouching(b, 100_000) })
	b.Run("compacting", func(b *testing.B) { benchAppendWhileTouching(b, 4096) })
}

func benchAppendWhileTouching(b *testing.B, retainRows int) {
	const batchRows = 256
	m := NewManager(core.DefaultConfig())
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	tb, err := storage.NewTable("events", storage.NewIntColumn("v", vals))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.SetRetention(storage.Retention{MaxRows: retainRows}); err != nil {
		b.Fatal(err)
	}
	m.Catalog().RegisterLive(tb)
	s, err := m.Create("toucher")
	if err != nil {
		b.Fatal(err)
	}
	obj, err := s.CreateColumnObject("events", "v", equivFrame)
	if err != nil {
		b.Fatal(err)
	}
	obj.SetActions(core.Actions{Mode: core.ModeAggregate, Agg: operator.Sum})

	stop := make(chan struct{})
	touchDone := make(chan struct{})
	go func() {
		defer close(touchDone)
		var cur time.Duration
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Apply(livePinSlide(cur)); err != nil {
				b.Error(err)
				return
			}
			cur += 3 * time.Second
		}
	}()

	rows := make([][]storage.Value, batchRows)
	b.ResetTimer()
	b.SetBytes(batchRows * 8)
	next := len(vals)
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = []storage.Value{storage.IntValue(int64((next + j) % 1000))}
		}
		next += batchRows
		if _, err := m.Append("events", rows); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tb.Gen()), "compactions")
	close(stop)
	<-touchDone
	m.Close()
	if tb.Epoch() < uint64(b.N) {
		b.Fatal(fmt.Sprintf("epoch %d after %d batches", tb.Epoch(), b.N))
	}
}
