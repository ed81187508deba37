package session

import (
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
)

// The perform path's complexity gates (ROADMAP item 9): at steady state a
// perform allocates a small constant number of objects — not one per
// touch event, per result or per sample level — however large the live
// table it explores and however long the session has run. Allocation
// counts repeat exactly, so these gates cannot flake on a noisy host.

// ingestRows is one stream_ingest append.
const ingestRows = 1000

// ingestBatch returns the n-th stream_ingest append (ts, key, value) as
// the /rpc handler would parse it.
func ingestBatch(n int) *storage.Batch {
	b := new(storage.Batch)
	keys := [...]string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for r := 0; r < ingestRows; r++ {
		ts := n*ingestRows + r
		b.AppendFloat(float64(ts))
		b.AppendString(keys[ts%len(keys)])
		b.AppendFloat(float64(ts * 7919 % 1_000_000))
		b.EndRow()
	}
	return b
}

// ingestSession builds the stream_ingest deployment at a retained size:
// a live (ts, key, value) table capped at rows, filled through its first
// compaction so its arrays are sized for a whole generation as they are
// in steady state, and a session with a scan-mode column object on value.
// It returns the table, the session, the object id and the next batch
// number.
func ingestSession(tb testing.TB, rows int) (*storage.Table, *Session, int, int) {
	tb.Helper()
	m := NewManager(core.DefaultConfig())
	t, err := storage.NewTable("events",
		storage.NewIntColumn("ts", nil), storage.NewStringColumn("key", nil), storage.NewIntColumn("value", nil))
	if err != nil {
		tb.Fatal(err)
	}
	if err := t.SetRetention(storage.Retention{MaxRows: rows}); err != nil {
		tb.Fatal(err)
	}
	m.Catalog().RegisterLive(t)
	next := 0
	for ; t.Gen() == 0; next++ {
		if _, err := t.AppendColumns(ingestBatch(next)); err != nil {
			tb.Fatal(err)
		}
	}
	s, err := m.Create("ingest")
	if err != nil {
		tb.Fatal(err)
	}
	obj, err := s.CreateColumnObject("events", "value", equivFrame)
	if err != nil {
		tb.Fatal(err)
	}
	a := obj.Actions()
	a.Mode = core.ModeScan
	obj.SetActions(a)
	return t, s, obj.ID(), next
}

// scanSlide is stream_ingest's gesture: one 20 s top-to-bottom slide.
func scanSlide(id int) gesture.Gesture { return gesture.NewSlide(id, 0, 1, 20*time.Second) }

// ingestStep returns stream_ingest's loop step — an append, then the
// scan slide that repins to it — over batches prebuilt from next on.
func ingestStep(tb testing.TB, t *storage.Table, s *Session, id, next, steps int) func() {
	batches := make([]*storage.Batch, steps)
	for i := range batches {
		batches[i] = ingestBatch(next + i)
	}
	i := 0
	return func() {
		if _, err := t.AppendColumns(batches[i]); err != nil {
			tb.Fatal(err)
		}
		i++
		if _, err := s.Perform(scanSlide(id)); err != nil {
			tb.Fatal(err)
		}
	}
}

// ingestStepAllocs measures the loop step at a retained size. The runs
// stay below the row count at which the column grows another sample
// level (16 257 rows for 10k); beyond the handful of objects a perform
// allocates, a step pays the amortized regrowth of the table's arrays
// and the sample tails.
func ingestStepAllocs(t *testing.T, rows int) float64 {
	const runs = 4
	tbl, s, id, next := ingestSession(t, rows)
	step := ingestStep(t, tbl, s, id, next, runs+2)
	step() // the first perform builds the object's trackers
	return testing.AllocsPerRun(runs, step)
}

func TestPerformAllocsFlatInLiveTableSize(t *testing.T) {
	small, large := ingestStepAllocs(t, 10_000), ingestStepAllocs(t, 100_000)
	t.Logf("append + scan slide: %.0f allocs at 10k rows, %.0f at 100k", small, large)
	if small > 64 || large > 64 {
		t.Fatalf("append + scan slide allocates %.0f (10k rows) / %.0f (100k rows), want ≤ 64", small, large)
	}
	if d := large - small; d > 2 || d < -2 {
		t.Fatalf("append + scan slide allocates %.0f at 10k rows but %.0f at 100k", small, large)
	}
}

// tapSession is a session with a scan-mode object over a static column.
func tapSession(tb testing.TB, rows int) (*Session, int) {
	tb.Helper()
	m := NewManager(core.DefaultConfig())
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = float64(i%997) / 7
	}
	mt, err := storage.NewMatrix("t", storage.NewFloatColumn("v", vals))
	if err != nil {
		tb.Fatal(err)
	}
	m.Catalog().Register(mt)
	s, err := m.Create("tapper")
	if err != nil {
		tb.Fatal(err)
	}
	obj, err := s.CreateColumnObject("t", "v", equivFrame)
	if err != nil {
		tb.Fatal(err)
	}
	return s, obj.ID()
}

func TestPerformAllocsFlatInSessionHistory(t *testing.T) {
	s, id := tapSession(t, 100_000)
	n := 0
	tap := func() {
		n++
		if _, err := s.Perform(gesture.NewTap(id, float64(n%100)/100)); err != nil {
			t.Fatal(err)
		}
	}
	for n < 10 {
		tap()
	}
	early := testing.AllocsPerRun(50, tap)
	for n < 1000 {
		tap()
	}
	late := testing.AllocsPerRun(50, tap)
	t.Logf("tap: %.0f allocs after 10 performs, %.0f after 1000", early, late)
	if d := late - early; d > 2 || d < -2 {
		t.Fatalf("a tap allocates %.0f after 10 performs but %.0f after 1000", early, late)
	}
}

// TestPerformAllocsFilteredAggregateSlide gates scan_direct's perform: a
// full-height filtered SUM slide over a static column, fused with its one
// WHERE conjunct, allocates only the session's result copy — the fused
// scan, its block memo and the optimizer's bookkeeping allocate nothing
// once the memo has its blocks.
func TestPerformAllocsFilteredAggregateSlide(t *testing.T) {
	m := NewManager(core.DefaultConfig())
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = int64(i * 7919 % 1_000_000)
	}
	mt, err := storage.NewMatrix("t", storage.NewIntColumn("i", vals))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().Register(mt)
	s, err := m.Create("scanner")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.CreateColumnObject("t", "i", equivFrame)
	if err != nil {
		t.Fatal(err)
	}
	obj.SetActions(core.Actions{Mode: core.ModeAggregate, Agg: operator.Sum,
		Filters: []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(500_000)}}})
	slide := func() {
		if _, err := s.Perform(gesture.NewSlide(obj.ID(), 0, 1, 2*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	slide()
	allocs := testing.AllocsPerRun(10, slide)
	t.Logf("filtered aggregate slide: %.0f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("a filtered aggregate slide allocates %.0f, want ≤ 1", allocs)
	}
	if s.Kernel().Counters().Get("touch.fused") == 0 {
		t.Fatal("the slide never took the fused path")
	}
}

// BenchmarkPerformScanSlide is stream_ingest's perform: a 20 s scan
// slide over a live table retaining 250 000 rows, each after a
// 1000-row append (untimed) that it repins to.
func BenchmarkPerformScanSlide(b *testing.B) {
	tbl, s, id, next := ingestSession(b, 250_000)
	step := ingestStep(b, tbl, s, id, next, 1)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := tbl.AppendColumns(ingestBatch(next + 1 + i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Perform(scanSlide(id)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerformTap is one tap on a static 1M-row column.
func BenchmarkPerformTap(b *testing.B) {
	s, id := tapSession(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Perform(gesture.NewTap(id, float64(i%100)/100)); err != nil {
			b.Fatal(err)
		}
	}
}
