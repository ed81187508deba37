package operator

import (
	"math"
	"testing"
	"testing/quick"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

func TestRunningAggBasics(t *testing.T) {
	vals := []float64{4, 1, 9, 2, 2}
	cases := []struct {
		kind AggKind
		want float64
	}{
		{Count, 5}, {Sum, 18}, {Avg, 3.6}, {Min, 1}, {Max, 9},
	}
	for _, tc := range cases {
		a := NewRunningAgg(tc.kind)
		for _, v := range vals {
			a.Add(v)
		}
		if got := a.Value(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%v = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

func TestRunningAggEmpty(t *testing.T) {
	if got := NewRunningAgg(Count).Value(); got != 0 {
		t.Fatalf("empty count = %v", got)
	}
	if got := NewRunningAgg(Sum).Value(); got != 0 {
		t.Fatalf("empty sum = %v", got)
	}
	for _, k := range []AggKind{Avg, Min, Max, Var, Stddev} {
		if got := NewRunningAgg(k).Value(); !math.IsNaN(got) {
			t.Errorf("empty %v = %v, want NaN", k, got)
		}
	}
}

// Property: the running aggregate equals recomputing from scratch — the
// invariant that lets dbTouch absorb one value per touch.
func TestRunningAggMatchesBatchProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		run := NewRunningAgg(Var)
		var sum float64
		for _, v := range vals {
			run.Add(v)
			sum += v
		}
		if len(vals) < 2 {
			return math.IsNaN(run.Value())
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		want := ss / float64(len(vals)-1)
		return math.Abs(run.Value()-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningAggStddevIsSqrtVar(t *testing.T) {
	va := NewRunningAgg(Var)
	sd := NewRunningAgg(Stddev)
	for _, v := range []float64{1, 5, 2, 8, 3} {
		va.Add(v)
		sd.Add(v)
	}
	if math.Abs(sd.Value()-math.Sqrt(va.Value())) > 1e-9 {
		t.Fatalf("stddev %v != sqrt(var %v)", sd.Value(), va.Value())
	}
}

// TestRunningAggSumIsExact pins SUM and AVG to the exact sum rounded
// once: values whose left-to-right sum loses the small terms, fed in
// either order and through AddSpan, Add and FuseFilter, answer the same
// bits — and the answer allocates nothing.
func TestRunningAggSumIsExact(t *testing.T) {
	vals := []float64{1e16, 1, 1, 1, 1, -1e16, 0.1, 0.2}
	want := 4.3 // 4 + 0.1 + 0.2, rounded once
	forward, backward, spans := NewRunningAgg(Sum), NewRunningAgg(Sum), NewRunningAgg(Sum)
	for i := range vals {
		forward.Add(vals[i])
		backward.Add(vals[len(vals)-1-i])
		spans.AddSpan(1, vals[i], vals[i], vals[i])
	}
	fused := NewRunningAgg(Sum)
	fused.FuseFilter(storage.NewFloatColumn("v", vals), 0, len(vals), nil, Lt, storage.FloatValue(2e16), nil, nil, nil)
	for name, a := range map[string]*RunningAgg{"forward": forward, "backward": backward, "spans": spans, "fused": fused} {
		if got := a.Value(); got != want {
			t.Errorf("%s: sum = %v, want %v", name, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = forward.Value() }); allocs != 0 {
		t.Fatalf("Value allocates %v times", allocs)
	}
}

var sinkValue float64

func TestRunningAggReset(t *testing.T) {
	a := NewRunningAgg(Max)
	a.Add(10)
	a.Reset()
	if a.N() != 0 || !math.IsNaN(a.Value()) {
		t.Fatal("Reset incomplete")
	}
	a.Add(3)
	if a.Value() != 3 {
		t.Fatal("post-Reset accumulation broken")
	}
}

func TestParseAggKind(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": Count, "SUM": Sum, "avg": Avg, "MIN": Min, "max": Max, "VAR": Var, "stddev": Stddev,
	} {
		got, err := ParseAggKind(name)
		if err != nil || got != want {
			t.Errorf("ParseAggKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAggKind("median"); err == nil {
		t.Fatal("unknown aggregate should error")
	}
}

func TestSummarizerWindowClamping(t *testing.T) {
	s := Summarizer{K: 10}
	lo, hi := s.Window(5, 1000)
	if lo != 0 || hi != 16 {
		t.Fatalf("window near start = [%d,%d)", lo, hi)
	}
	lo, hi = s.Window(995, 1000)
	if lo != 985 || hi != 1000 {
		t.Fatalf("window near end = [%d,%d)", lo, hi)
	}
	lo, hi = s.Window(500, 1000)
	if hi-lo != 21 {
		t.Fatalf("interior window size = %d, want 21", hi-lo)
	}
}

func TestSummarizerAt(t *testing.T) {
	col := storage.NewIntColumn("v", []int64{0, 10, 20, 30, 40})
	s := Summarizer{K: 1, Kind: Avg}
	r := s.At(col, 2, nil)
	if r.Value != 20 || r.N != 3 || r.Lo != 1 || r.Hi != 4 {
		t.Fatalf("summary = %+v", r)
	}
	// K=0 degenerates to the single value.
	s0 := Summarizer{K: 0, Kind: Avg}
	if r := s0.At(col, 3, nil); r.Value != 30 || r.N != 1 {
		t.Fatalf("k=0 summary = %+v", r)
	}
}

func TestSummarizerChargesTracker(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{BlockValues: 2, ColdLatency: 1000, WarmLatency: 1}, nil)
	col := storage.NewIntColumn("v", []int64{1, 2, 3, 4, 5})
	Summarizer{K: 2, Kind: Sum}.At(col, 2, tr)
	if got := tr.Stats().ValuesRead; got != 5 {
		t.Fatalf("values read = %d, want 5", got)
	}
	if clock.Now() == 0 {
		t.Fatal("summary should advance the clock")
	}
}

func TestCmpOps(t *testing.T) {
	five := storage.IntValue(5)
	cases := []struct {
		op   CmpOp
		v    storage.Value
		want bool
	}{
		{Eq, storage.IntValue(5), true}, {Eq, storage.IntValue(4), false},
		{Ne, storage.IntValue(4), true},
		{Lt, storage.IntValue(6), false}, {Lt, storage.IntValue(4), true},
		{Gt, storage.IntValue(6), true}, {Gt, storage.IntValue(4), false},
		{Le, storage.IntValue(5), true},
		{Ge, storage.IntValue(6), true}, {Ge, storage.IntValue(4), false},
	}
	for _, tc := range cases {
		// note: Apply(left=v? ...) semantics: left op right.
		if got := tc.op.Apply(tc.v, five); got != tc.want {
			t.Errorf("%v %v 5 = %v, want %v", tc.v, tc.op, got, tc.want)
		}
	}
}

func TestPredicateEval(t *testing.T) {
	m, err := storage.NewMatrix("t",
		storage.NewIntColumn("a", []int64{1, 10, 3}),
		storage.NewStringColumn("s", []string{"x", "y", "x"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Predicate{Col: 0, Op: Gt, Operand: storage.IntValue(5)}
	ok, err := p.Eval(m, 1, nil)
	if err != nil || !ok {
		t.Fatalf("Eval = %v, %v", ok, err)
	}
	ok, _ = p.Eval(m, 0, nil)
	if ok {
		t.Fatal("1 > 5 should be false")
	}
	ps := Predicate{Col: 1, Op: Eq, Operand: storage.StringValue("x")}
	ok, _ = ps.Eval(m, 2, nil)
	if !ok {
		t.Fatal("string equality failed")
	}
	bad := Predicate{Col: 9, Op: Eq, Operand: storage.IntValue(0)}
	if _, err := bad.Eval(m, 0, nil); err == nil {
		t.Fatal("bad column should error")
	}
}

func TestConjunctStatsDecay(t *testing.T) {
	s := NewConjunctStats(8)
	if s.Selectivity() != 0.5 {
		t.Fatal("prior should be 0.5")
	}
	for i := 0; i < 8; i++ {
		s.Observe(true)
	}
	if s.Selectivity() != 1 {
		t.Fatalf("all-pass selectivity = %v", s.Selectivity())
	}
	// After a regime change the estimate must move toward the new rate.
	for i := 0; i < 16; i++ {
		s.Observe(false)
	}
	if s.Selectivity() > 0.3 {
		t.Fatalf("stale selectivity %v; decay not working", s.Selectivity())
	}
}

func TestSymmetricHashJoinStreams(t *testing.T) {
	left := storage.NewIntColumn("l", []int64{1, 2, 3})
	right := storage.NewIntColumn("r", []int64{3, 1, 1})
	j := NewSymmetricHashJoin(left, right)
	if m := j.PushLeft(0, nil); len(m) != 0 {
		t.Fatal("no matches before right side seen")
	}
	m := j.PushRight(1, nil) // right[1]=1 matches left[0]=1
	if len(m) != 1 || m[0].LeftID != 0 || m[0].RightID != 1 {
		t.Fatalf("matches = %v", m)
	}
	m = j.PushRight(2, nil) // another 1
	if len(m) != 1 {
		t.Fatalf("second right 1 matches = %v", m)
	}
	if j.Matches() != 2 {
		t.Fatalf("total matches = %d", j.Matches())
	}
}

func TestSymmetricJoinIdempotentRevisit(t *testing.T) {
	left := storage.NewIntColumn("l", []int64{7})
	right := storage.NewIntColumn("r", []int64{7})
	j := NewSymmetricHashJoin(left, right)
	j.PushLeft(0, nil)
	j.PushRight(0, nil)
	if m := j.PushLeft(0, nil); len(m) != 0 {
		t.Fatal("revisited tuple must not re-match")
	}
	if j.Matches() != 1 {
		t.Fatalf("matches = %d, want 1", j.Matches())
	}
}

func TestSymmetricJoinOutOfRange(t *testing.T) {
	left := storage.NewIntColumn("l", []int64{1})
	right := storage.NewIntColumn("r", []int64{1})
	j := NewSymmetricHashJoin(left, right)
	if m := j.PushLeft(-1, nil); m != nil {
		t.Fatal("negative id should be ignored")
	}
	if m := j.PushRight(5, nil); m != nil {
		t.Fatal("out-of-range id should be ignored")
	}
}

// Property: pushing everything through the symmetric join yields exactly
// the matches of the blocking join.
func TestSymmetricEqualsBlockingProperty(t *testing.T) {
	f := func(lRaw, rRaw []uint8) bool {
		if len(lRaw) == 0 || len(rRaw) == 0 {
			return true
		}
		l := make([]int64, len(lRaw))
		r := make([]int64, len(rRaw))
		for i, v := range lRaw {
			l[i] = int64(v % 8)
		}
		for i, v := range rRaw {
			r[i] = int64(v % 8)
		}
		left := storage.NewIntColumn("l", l)
		right := storage.NewIntColumn("r", r)
		sym := NewSymmetricHashJoin(left, right)
		var symCount int64
		for i := range l {
			symCount += int64(len(sym.PushLeft(i, nil)))
		}
		for i := range r {
			symCount += int64(len(sym.PushRight(i, nil)))
		}
		blk := NewBlockingHashJoin()
		blk.Build(right, nil)
		var blkCount int64
		for i := range l {
			blkCount += int64(len(blk.Probe(left, i, nil)))
		}
		return symCount == blkCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockingJoinRefusesEarlyProbe(t *testing.T) {
	j := NewBlockingHashJoin()
	probe := storage.NewIntColumn("p", []int64{1})
	if got := j.Probe(probe, 0, nil); got != nil {
		t.Fatal("probe before build must return nothing")
	}
	if j.Built() {
		t.Fatal("not built yet")
	}
}

func TestIncrementalGroupBy(t *testing.T) {
	keys := storage.NewStringColumn("k", []string{"a", "b", "a", "b", "a"})
	vals := storage.NewIntColumn("v", []int64{1, 10, 2, 20, 3})
	g := NewIncrementalGroupBy(keys, vals, Sum)
	for i := 0; i < 5; i++ {
		g.Push(i, nil, nil)
	}
	groups := g.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Key != "a" || groups[0].Value != 6 || groups[0].N != 3 {
		t.Fatalf("group a = %+v", groups[0])
	}
	if groups[1].Key != "b" || groups[1].Value != 30 {
		t.Fatalf("group b = %+v", groups[1])
	}
}

func TestGroupByRevisitIdempotent(t *testing.T) {
	keys := storage.NewStringColumn("k", []string{"a"})
	vals := storage.NewIntColumn("v", []int64{5})
	g := NewIncrementalGroupBy(keys, vals, Sum)
	g.Push(0, nil, nil)
	if _, _, ok := g.Push(0, nil, nil); ok {
		t.Fatal("revisit should be a no-op")
	}
	if g.Groups()[0].Value != 5 {
		t.Fatal("revisit double-counted")
	}
	if g.SeenTuples() != 1 {
		t.Fatal("seen count wrong")
	}
}
