package operator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dbtouch/internal/cache"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// The fusion charging contract: FuseFilterAgg must advance the virtual
// clock and evolve tracker stats exactly as the unfused pipeline —
// EvalRange to a selection vector, one value-tracker read per selected
// row, then a scalar add loop — for any span, selectivity, block size,
// and eviction pressure. The aggregate itself must match the scalar loop.

type fusionFixture struct {
	m     *storage.Matrix
	col   *storage.Column
	clock *vclock.Clock
	pred  *iomodel.Tracker
	val   *iomodel.Tracker
}

func newFusionFixture(t *testing.T, vals []int64, params iomodel.Params) *fusionFixture {
	t.Helper()
	col := storage.NewIntColumn("v", vals)
	m, err := storage.NewMatrix("t", col)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.New()
	return &fusionFixture{
		m:     m,
		col:   col,
		clock: clock,
		pred:  iomodel.New(clock, params, nil),
		val:   iomodel.New(clock, params, nil),
	}
}

// runUnfused is the compose-of-parts reference over one span.
func runUnfused(t *testing.T, f *fusionFixture, lo, hi int, p Predicate) (n int, sum, mn, mx float64) {
	t.Helper()
	trackers := []*iomodel.Tracker{f.pred}
	sel, _, err := p.EvalRange(f.m, lo, hi, nil, trackers, nil)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx = math.Inf(1), math.Inf(-1)
	var isum int64
	for _, r := range sel {
		f.val.Access(int(r))
		v := f.col.Float(int(r))
		isum += f.col.Int(int(r))
		n++
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return n, float64(isum), mn, mx
}

func eqStats(a, b iomodel.Stats) bool { return a == b }

func TestFuseFilterAggChargesLikeUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	params := iomodel.Params{
		BlockValues: 64,
		ColdLatency: 40 * time.Microsecond,
		WarmLatency: 7 * time.Nanosecond,
		WarmBudget:  8, // eviction pressure: warm state must also match
	}
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	for _, operand := range []int64{10, 500, 990} { // ~1%, 50%, 99%
		t.Run(fmt.Sprintf("lt_%d", operand), func(t *testing.T) {
			ref := newFusionFixture(t, vals, params)
			fus := newFusionFixture(t, vals, params)
			p := Predicate{Col: 0, Op: Lt, Operand: storage.IntValue(operand)}
			// Several spans back to back, like consecutive slide steps,
			// so later spans hit warm blocks left by earlier ones.
			spans := [][2]int{{0, 3000}, {3000, 9100}, {9050, 9050}, {8000, 20000}, {-5, 70}}
			for _, s := range spans {
				wantN, wantSum, _, _ := runUnfused(t, ref, s[0], s[1], p)
				fa := FuseFilterAgg(fus.col, s[0], s[1], nil, p.Op, p.Operand, fus.pred, fus.val, Avg)
				if fa.N != wantN || fa.Sum != wantSum {
					t.Fatalf("span %v: fused %+v, unfused n=%d sum=%v", s, fa, wantN, wantSum)
				}
				if ref.clock.Now() != fus.clock.Now() {
					t.Fatalf("span %v: clocks diverge: unfused %v fused %v", s, ref.clock.Now(), fus.clock.Now())
				}
				if !eqStats(ref.pred.Stats(), fus.pred.Stats()) {
					t.Fatalf("span %v: predicate tracker stats diverge:\n unfused %+v\n fused   %+v", s, ref.pred.Stats(), fus.pred.Stats())
				}
				if !eqStats(ref.val.Stats(), fus.val.Stats()) {
					t.Fatalf("span %v: value tracker stats diverge:\n unfused %+v\n fused   %+v", s, ref.val.Stats(), fus.val.Stats())
				}
				if ref.val.WarmBlocks() != fus.val.WarmBlocks() {
					t.Fatalf("span %v: warm sets diverge: %d vs %d", s, ref.val.WarmBlocks(), fus.val.WarmBlocks())
				}
			}
		})
	}
}

func TestFuseFilterAggSelChargesLikeUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	params := iomodel.Params{
		BlockValues: 32,
		ColdLatency: 25 * time.Microsecond,
		WarmLatency: 5 * time.Nanosecond,
	}
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(100))
	}
	ref := newFusionFixture(t, vals, params)
	fus := newFusionFixture(t, vals, params)
	// A sparse prior selection, as a prefix conjunct would leave behind.
	var sel []int32
	for i := 0; i < len(vals); i++ {
		if rng.Intn(3) == 0 {
			sel = append(sel, int32(i))
		}
	}
	p := Predicate{Col: 0, Op: Ge, Operand: storage.IntValue(40)}

	// Unfused: refine via EvalRange(sel), then charge + aggregate.
	refined, _, err := p.EvalRange(ref.m, 0, len(vals), sel, []*iomodel.Tracker{ref.pred}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantN int
	var wantISum int64
	for _, r := range refined {
		ref.val.Access(int(r))
		wantISum += vals[r]
		wantN++
	}

	fa := FuseFilterAgg(fus.col, 0, 0, sel, p.Op, p.Operand, fus.pred, fus.val, Sum)
	if fa.N != wantN || fa.Sum != float64(wantISum) {
		t.Fatalf("fused sel form: %+v, want n=%d isum=%d", fa, wantN, wantISum)
	}
	if ref.clock.Now() != fus.clock.Now() {
		t.Fatalf("clocks diverge: unfused %v fused %v", ref.clock.Now(), fus.clock.Now())
	}
	if !eqStats(ref.pred.Stats(), fus.pred.Stats()) || !eqStats(ref.val.Stats(), fus.val.Stats()) {
		t.Fatalf("tracker stats diverge:\n pred %+v vs %+v\n val %+v vs %+v",
			ref.pred.Stats(), fus.pred.Stats(), ref.val.Stats(), fus.val.Stats())
	}
}

// TestChargeSelectionChargesLikeAccessLoop holds the per-block selection
// charge to its definition — one Access per selected row — under eviction
// pressure, for selections from single rows to whole blocks.
func TestChargeSelectionChargesLikeAccessLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	params := iomodel.Params{
		BlockValues: 64,
		ColdLatency: 40 * time.Microsecond,
		WarmLatency: 7 * time.Nanosecond,
		WarmBudget:  8,
	}
	vals := make([]int64, 20000)
	ref := newFusionFixture(t, vals, params)
	got := newFusionFixture(t, vals, params)
	for _, keepOneIn := range []int{1, 2, 3, 50, 700} {
		for _, span := range [][2]int{{0, 20000}, {19000, 5000}, {4990, 5010}} {
			var sel []int32
			for i := min(span[0], span[1]); i < max(span[0], span[1]); i++ {
				if rng.Intn(keepOneIn) == 0 {
					sel = append(sel, int32(i))
				}
			}
			for _, r := range sel {
				ref.val.Access(int(r))
			}
			ChargeSelection(got.val, sel)
			if ref.clock.Now() != got.clock.Now() || !eqStats(ref.val.Stats(), got.val.Stats()) || ref.val.WarmBlocks() != got.val.WarmBlocks() {
				t.Fatalf("1 in %d over %v: per-row loop clock %v stats %+v warm %d, ChargeSelection clock %v stats %+v warm %d", keepOneIn, span,
					ref.clock.Now(), ref.val.Stats(), ref.val.WarmBlocks(), got.clock.Now(), got.val.Stats(), got.val.WarmBlocks())
			}
		}
	}
	ChargeSelection(nil, []int32{1, 2}) // a nil tracker skips the accounting
}

// TestFuseFilterAggKindDispatch pins what each kind-specialized kernel
// maintains: every kind reports the exact qualifying count; sum kinds
// carry the sum (±Inf extrema), MIN the minimum and MAX the maximum
// (zero sum, the other extremum ±Inf), and a kind the fusion dispatch
// never sends (Var) gets the count alone.
func TestFuseFilterAggKindDispatch(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 2, 8}
	col := storage.NewIntColumn("v", vals)
	run := func(kind AggKind) storage.FilterAgg {
		return FuseFilterAgg(col, 0, len(vals), nil, Gt, storage.IntValue(4), nil, nil, kind)
	}
	for _, kind := range []AggKind{Count, Sum, Avg, Min, Max, Var} {
		if fa := run(kind); fa.N != 4 {
			t.Fatalf("%v: N = %d, want 4", kind, fa.N)
		}
	}
	for _, kind := range []AggKind{Count, Var} {
		if fa := run(kind); fa.Sum != 0 || !math.IsInf(fa.Min, 1) || !math.IsInf(fa.Max, -1) {
			t.Fatalf("%v = %+v", kind, fa)
		}
	}
	if fa := run(Sum); fa.Sum != 5+9+7+8 || !math.IsInf(fa.Min, 1) {
		t.Fatalf("Sum = %+v", fa)
	}
	if fa := run(Min); fa.Min != 5 || !math.IsInf(fa.Max, -1) || fa.Sum != 0 {
		t.Fatalf("Min = %+v", fa)
	}
	if fa := run(Max); fa.Max != 9 || !math.IsInf(fa.Min, 1) || fa.Sum != 0 {
		t.Fatalf("Max = %+v", fa)
	}
}

// TestFuseFilterContinuesRunningSum holds RunningAgg.FuseFilter to an Add
// per qualifying row over consecutive spans of a float column whose
// left-to-right sum depends on the order of addition: the fused scan's
// exact partial must merge into the running sum so that the answer is
// the per-row one bit for bit, whatever the block size.
func TestFuseFilterContinuesRunningSum(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	vals := make([]float64, 9000)
	for i := range vals {
		switch rng.Intn(40) {
		case 0:
			vals[i] = math.Copysign(1e16, rng.Float64()-0.5)
		case 1:
			vals[i] = math.Copysign(0, -1)
		default:
			vals[i] = rng.NormFloat64() * 5
		}
	}
	col := storage.NewFloatColumn("v", vals)
	p := Predicate{Col: 0, Op: Lt, Operand: storage.FloatValue(2e16)}
	for _, kind := range []AggKind{Count, Sum, Avg, Min, Max} {
		for _, blockValues := range []int{1, 37, 1024} {
			want, got := NewRunningAgg(kind), NewRunningAgg(kind)
			val := iomodel.New(vclock.New(), iomodel.Params{BlockValues: blockValues, WarmLatency: time.Nanosecond}, nil)
			for _, s := range [][2]int{{0, 1}, {1, 2500}, {2500, 2500}, {2400, 9000}, {100, 300}} {
				for i := s[0]; i < s[1]; i++ {
					if vals[i] < 2e16 {
						want.Add(vals[i])
					}
				}
				got.FuseFilter(col, s[0], s[1], nil, p.Op, p.Operand, nil, val, nil)
				if got.N() != want.N() || math.Float64bits(got.Value()) != math.Float64bits(want.Value()) {
					t.Fatalf("%v blocks of %d, span %v: fused %v over %d rows, per-row adds %v over %d", kind, blockValues, s, got.Value(), got.N(), want.Value(), want.N())
				}
			}
		}
	}
}

func TestFusableAgg(t *testing.T) {
	fusable := map[AggKind]bool{Count: true, Sum: true, Avg: true, Min: true, Max: true, Var: false, Stddev: false}
	for kind, want := range fusable {
		if FusableAgg(kind) != want {
			t.Fatalf("FusableAgg(%v) = %v, want %v", kind, FusableAgg(kind), want)
		}
	}
}

// TestFuseFilterMinMaxEveryType holds the one-extremum MIN and MAX scans
// to the unfused pipeline — FilterRange to a selection, then an Add per
// selected row — on every column type, across consecutive spans, every
// comparison operator and cost-model block sizes: the answer a MIN or MAX
// aggregate reports must not notice that the other extremum is no longer
// maintained.
func TestFuseFilterMinMaxEveryType(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	const n = 3000
	ints := make([]int64, n)
	flts := make([]float64, n)
	bools := make([]bool, n)
	strs := make([]string, n)
	intEdges := []int64{math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53)}
	fltEdges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	words := []string{"apple", "fig", "pear", "quince"}
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(2000)) - 1000
		flts[i] = rng.NormFloat64() * 100
		if rng.Intn(10) == 0 {
			ints[i] = intEdges[rng.Intn(len(intEdges))]
			flts[i] = fltEdges[rng.Intn(len(fltEdges))]
		}
		bools[i] = rng.Intn(3) == 0
		strs[i] = words[rng.Intn(len(words))]
	}
	cols := []*storage.Column{
		storage.NewIntColumn("i", ints),
		storage.NewFloatColumn("f", flts),
		storage.NewBoolColumn("b", bools),
		storage.NewStringColumn("s", strs),
	}
	operands := map[storage.Type]storage.Value{
		storage.Int64:   storage.IntValue(100),
		storage.Float64: storage.FloatValue(20),
		storage.Bool:    storage.IntValue(1),
		storage.String:  storage.StringValue("fig"),
	}
	spans := [][2]int{{0, 1}, {1, 700}, {700, 700}, {650, 3000}, {40, 90}}
	for _, col := range cols {
		operand := operands[col.Type()]
		for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
			for _, kind := range []AggKind{Min, Max} {
				for _, blockValues := range []int{1, 64, 1024} {
					want, got := NewRunningAgg(kind), NewRunningAgg(kind)
					val := iomodel.New(vclock.New(), iomodel.Params{BlockValues: blockValues, WarmLatency: time.Nanosecond}, nil)
					for _, s := range spans {
						for _, r := range col.FilterRange(s[0], s[1], op.rangeOp(), operand, nil) {
							want.Add(col.Float(int(r)))
						}
						got.FuseFilter(col, s[0], s[1], nil, op, operand, nil, val, nil)
						if got.N() != want.N() || math.Float64bits(got.Value()) != math.Float64bits(want.Value()) {
							t.Fatalf("%s %v op=%v blocks of %d, span %v: fused %v over %d rows, unfused %v over %d",
								col.Type(), kind, op, blockValues, s, got.Value(), got.N(), want.Value(), want.N())
						}
					}
				}
			}
		}
	}
}

// TestFusedFloatSumAllocatesNothing is the allocation gate of the fused
// float SUM slide: a filtered step over a float column, charged to
// gesture-aware trackers, merged into the running sum and answered,
// allocates nothing once the trackers are warm.
func TestFusedFloatSumAllocatesNothing(t *testing.T) {
	vals := make([]float64, 50_000)
	for i := range vals {
		vals[i] = float64(i%1000) / 7
	}
	checkFusedStepAllocs(t, storage.NewFloatColumn("f", vals), Sum, storage.FloatValue(100))
}

// TestFusedStringCountAllocatesNothing is the same gate for the string
// COUNT slide over scan_direct's 64 keys, whose pass table the scan
// folds into the count kernel's bitmap on its stack.
func TestFusedStringCountAllocatesNothing(t *testing.T) {
	vals := make([]string, 50_000)
	for i := range vals {
		vals[i] = fmt.Sprintf("k%02d", i*7%64)
	}
	checkFusedStepAllocs(t, storage.NewStringColumn("s", vals), Count, storage.StringValue("k32"))
}

// checkFusedStepAllocs fails t if a warm fused `col < operand` step over
// the whole of col allocates, through a running aggregate or through
// FuseFilterAgg (col spans fewer than 256 blocks), or if a served step —
// ragged head and tail chunks around a run of blocks answered from a
// filled FusedMemo — does, or one whose cut points move inside the
// blocks at either end.
func checkFusedStepAllocs(t *testing.T, col *storage.Column, kind AggKind, operand storage.Value) {
	t.Helper()
	clock := vclock.New()
	pred := iomodel.New(clock, iomodel.DefaultParams(), cache.NewGestureAware(8))
	val := iomodel.New(clock, iomodel.DefaultParams(), cache.NewGestureAware(8))
	agg := NewRunningAgg(kind)
	step := func() {
		agg.FuseFilter(col, 0, col.Len(), nil, Lt, operand, pred, val, nil)
		sinkValue = agg.Value()
	}
	step() // warm the trackers
	// allocs counts the allocations of 20 calls of f as one run:
	// AllocsPerRun truncates its mean, so a step that allocated on a few
	// calls only (a buffer grown now and then) would read 0 per call.
	allocs := func(f func()) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < 20; i++ {
				f()
			}
		})
	}
	if n := allocs(step); n != 0 {
		t.Fatalf("20 fused %v steps over a %v column allocate %v times", kind, col.Type(), n)
	}
	alone := func() { sinkValue = FuseFilterAgg(col, 0, col.Len(), nil, Lt, operand, pred, val, kind).Sum }
	if n := allocs(alone); n != 0 {
		t.Fatalf("20 FuseFilterAgg calls over a %v column allocate %v times", col.Type(), n)
	}
	var memo storage.FusedMemo
	served := func() {
		agg.FuseFilter(col, 3, col.Len()-5, nil, Lt, operand, pred, val, &memo)
		sinkValue = agg.Value()
	}
	served() // fill the memo
	if n := allocs(served); n != 0 {
		t.Fatalf("20 fused %v steps answered from a block memo over a %v column allocate %v times", kind, col.Type(), n)
	}
	// Steps whose ends move inside the first and the last complete block
	// a span cuts read those parts, fold the kept blocks between, and
	// allocate nothing.
	last := col.Len()/1024*1024 - 1024
	shift := 0
	moving := func() {
		shift = (shift + 37) % 1000
		agg.FuseFilter(col, 3+shift, last+17+shift, nil, Lt, operand, pred, val, &memo)
		sinkValue = agg.Value()
	}
	if n := allocs(moving); n != 0 {
		t.Fatalf("20 fused %v steps whose ends move inside cut blocks over a %v column allocate %v times", kind, col.Type(), n)
	}
}
