package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The fused-kernel property suite: the blocked fused scans
// (FilterAggRangeBlocked, FilterAggSelBlocked) must equal the
// compose-of-parts path — FilterRange (or FilterSel) to a selection
// vector, then a scalar aggregation loop over the selection — for all
// operators × column types × modes × block lengths × seeds × edge cases
// (NaN data and operands, empty and inverted ranges, out-of-bounds
// clamping). Sums are compared bit for bit: every scan reports the exact
// sum rounded once, so its bits cannot depend on the block length, the
// windowing or the vector lanes. CI runs this under -race with the rest
// of the package.

var (
	fusedOps       = []RangeOp{RangeEq, RangeNe, RangeLt, RangeLe, RangeGt, RangeGe}
	fusedModes     = []FusedMode{FusedCount, FusedSum, FusedMin, FusedMax}
	fusedBlockLens = []int{0, 1, 7, 64, 1024, 10000}
)

// composeAgg is the scalar reference: aggregate over the selection one
// value at a time — a wrapping int64 sum for integer-backed columns (the
// fused kernels' integer contract: it matches a float loop whenever that
// loop is exact, and is the more accurate answer beyond 2^53), an ExactSum
// Add per value for float columns — and round the sum once.
func composeAgg(c *Column, sel []int32) FilterAgg {
	want := FilterAgg{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum ExactSum
	var isum int64
	for _, p := range sel {
		v := c.Float(int(p))
		if c.Type() == Float64 {
			sum.Add(v)
		} else {
			isum += c.Int(int(p))
		}
		want.N++
		if v < want.Min {
			want.Min = v
		}
		if v > want.Max {
			want.Max = v
		}
	}
	sum.AddInt(isum)
	want.Sum = sum.Round()
	return want
}

// rangeScan runs FilterAggRangeBlocked into a fresh exact sum and reports
// that sum rounded once in Sum, as operator.FuseFilterAgg does (+0 in the
// modes that keep no sum).
func rangeScan(c *Column, lo, hi, bl int, op RangeOp, operand Value, mode FusedMode, memo *FusedMemo) (FilterAgg, []int32) {
	var sum ExactSum
	fa, counts := c.FilterAggRangeBlocked(lo, hi, bl, op, operand, mode, memo, &sum, nil)
	fa.Sum = sum.Round()
	return fa, counts
}

// selScan is rangeScan for FilterAggSelBlocked.
func selScan(c *Column, sel []int32, bl int, op RangeOp, operand Value, mode FusedMode) (FilterAgg, []int32) {
	var sum ExactSum
	fa, counts := c.FilterAggSelBlocked(sel, bl, op, operand, mode, &sum, nil)
	fa.Sum = sum.Round()
	return fa, counts
}

// eqFloat compares aggregates bit for bit (so -0 is not +0), treating any
// two NaNs as equal.
func eqFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// composeRange is the reference selection of a range scan: FilterRange,
// itself first held to a scalar Value.Compare loop, which anchors the
// whole suite to the system comparison semantics — in particular the
// integer-bound lowering of float comparisons.
func composeRange(t *testing.T, c *Column, lo, hi int, op RangeOp, operand Value, label string) []int32 {
	t.Helper()
	sel := c.FilterRange(lo, hi, op, operand, nil)
	clo, chi := c.clampRange(lo, hi)
	want := sel[:0:0]
	for i := clo; i < chi; i++ {
		if op.applyCmp(c.Value(i).Compare(operand)) {
			want = append(want, int32(i))
		}
	}
	if len(sel) != len(want) {
		t.Fatalf("%s FilterRange[%d,%d) = %d rows, Value.Compare loop = %d", label, lo, hi, len(sel), len(want))
	}
	for i := range sel {
		if sel[i] != want[i] {
			t.Fatalf("%s FilterRange[%d,%d) row %d = %d, Value.Compare loop = %d", label, lo, hi, i, sel[i], want[i])
		}
	}
	return sel
}

// checkBlocked runs one blocked scan — FilterAggRangeBlocked or
// FilterAggSelBlocked, whose first count is block b0's — and holds its
// result to the compose over sel, and its per-block counts to sel's
// positions bucketed by block of bl (bl <= 0: only their sum).
func checkBlocked(t *testing.T, label string, c *Column, sel []int32, mode FusedMode, bl, b0 int, scan func() (FilterAgg, []int32)) {
	t.Helper()
	want := composeAgg(c, sel)
	got, counts := scan()
	label = fmt.Sprintf("%s mode=%d bl=%d", label, mode, bl)
	checkModeAgainstFull(t, label, got, want, mode)
	counted := 0
	for _, k := range counts {
		counted += int(k)
	}
	if counted != want.N {
		t.Fatalf("%s: counts sum to %d, want %d", label, counted, want.N)
	}
	if bl <= 0 {
		return
	}
	wantCounts := make([]int32, len(counts))
	for _, p := range sel {
		i := int(p)/bl - b0
		if i < 0 || i >= len(wantCounts) {
			t.Fatalf("%s: row %d qualified in block %d, outside the %d counted from block %d", label, p, int(p)/bl, len(counts), b0)
		}
		wantCounts[i]++
	}
	if !slices.Equal(counts, wantCounts) {
		t.Fatalf("%s: counts %v from block %d, want %v", label, counts, b0, wantCounts)
	}
}

// rangeFirstBlock is the block a range scan's first count belongs to.
func rangeFirstBlock(lo, bl int) int {
	if bl <= 0 {
		return 0
	}
	return max(lo, 0) / bl
}

// selFirstBlock is the block a selection scan's first count belongs to.
func selFirstBlock(base []int32, bl int) int {
	if bl <= 0 || len(base) == 0 {
		return 0
	}
	return int(base[0]) / bl
}

// checkAgainstCompose holds the range form to the compose in every mode,
// at the fixed block lengths and a random one: equal bits at every block
// length is what "independent of the chunking" means.
func checkAgainstCompose(t *testing.T, rng *rand.Rand, c *Column, lo, hi int, op RangeOp, operand Value, label string) {
	t.Helper()
	sel := composeRange(t, c, lo, hi, op, operand, label)
	label = fmt.Sprintf("%s range[%d,%d)", label, lo, hi)
	for _, mode := range fusedModes {
		for _, bl := range append(fusedBlockLens, 1+rng.Intn(1200)) {
			checkBlocked(t, label, c, sel, mode, bl, rangeFirstBlock(lo, bl), func() (FilterAgg, []int32) {
				return rangeScan(c, lo, hi, bl, op, operand, mode, nil)
			})
		}
	}
}

// checkSelAgainstCompose is checkAgainstCompose for the selection form.
func checkSelAgainstCompose(t *testing.T, rng *rand.Rand, c *Column, base []int32, op RangeOp, operand Value, label string) {
	t.Helper()
	sel := c.FilterSel(base, op, operand, nil)
	for _, mode := range fusedModes {
		for _, bl := range append(fusedBlockLens, 1+rng.Intn(1200)) {
			checkBlocked(t, label+" sel", c, sel, mode, bl, selFirstBlock(base, bl), func() (FilterAgg, []int32) {
				return selScan(c, base, bl, op, operand, mode)
			})
		}
	}
}

// fuzzColumns builds one column per type with adversarial values:
// duplicates, extremes, NaN/Inf floats, and a small string dictionary —
// plus a second float column of finite values whose sum depends on the
// order of addition (1e16 next to 1.0, -0, subnormals), since a sum over
// the first saturates at NaN or ±Inf within a few rows.
func fuzzColumns(rng *rand.Rand, n int) []*Column {
	ints := make([]int64, n)
	flts := make([]float64, n)
	finite := make([]float64, n)
	bools := make([]bool, n)
	strs := make([]string, n)
	words := []string{"apple", "fig", "pear", "quince", "banana", "apple "}
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			ints[i] = int64(rng.Intn(5)) // heavy duplicates
		case 1:
			ints[i] = rng.Int63() - rng.Int63()
		default:
			ints[i] = int64(rng.Intn(200)) - 100
		}
		switch rng.Intn(8) {
		case 0:
			flts[i] = math.NaN()
		case 1:
			flts[i] = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			flts[i] = math.Copysign(0, -1)
		default:
			flts[i] = (rng.Float64() - 0.5) * 200
		}
		switch rng.Intn(8) {
		case 0:
			finite[i] = math.Copysign(1e16, rng.Float64()-0.5)
		case 1, 2:
			finite[i] = 1
		case 3:
			finite[i] = math.Copysign(0, -1)
		case 4:
			finite[i] = math.SmallestNonzeroFloat64
		default:
			finite[i] = (rng.Float64() - 0.5) * 200
		}
		bools[i] = rng.Intn(2) == 0
		strs[i] = words[rng.Intn(len(words))]
	}
	return []*Column{
		NewIntColumn("i", ints),
		NewFloatColumn("f", flts),
		NewFloatColumn("g", finite),
		NewBoolColumn("b", bools),
		NewStringColumn("s", strs),
	}
}

// fuzzOperands yields operands that cross every coercion path, including
// NaN and values outside the data range.
func fuzzOperands(rng *rand.Rand) []Value {
	return []Value{
		IntValue(int64(rng.Intn(10)) - 5),
		IntValue(rng.Int63() - rng.Int63()),
		FloatValue((rng.Float64() - 0.5) * 300),
		FloatValue(math.NaN()),
		FloatValue(math.Inf(1)),
		FloatValue(2e16),
		BoolValue(rng.Intn(2) == 0),
		StringValue("fig"),
		StringValue("zzz"),
		StringValue(""),
	}
}

func TestFusedKernelsMatchCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for round := 0; round < 6; round++ {
		n := 1 + rng.Intn(700)
		cols := fuzzColumns(rng, n)
		ranges := [][2]int{
			{0, n},             // full
			{-7, n + 13},       // clamped both ends
			{n / 3, 2 * n / 3}, // interior
			{n / 2, n / 2},     // empty
			{n - 1, 3},         // inverted (clamps empty)
			{n, n + 5},         // fully out of range
		}
		for _, c := range cols {
			for _, op := range fusedOps {
				for oi, operand := range fuzzOperands(rng) {
					label := fmt.Sprintf("round=%d col=%s op=%d operand#%d", round, c.Name(), op, oi)
					for _, r := range ranges {
						checkAgainstCompose(t, rng, c, r[0], r[1], op, operand, label)
					}
					// Selection-refinement forms over a random base
					// selection (including out-of-range positions, which
					// both paths must skip).
					base := c.FilterRange(0, n, RangeNe, IntValue(math.MaxInt64), nil)
					if len(base) > 0 {
						base = base[:rng.Intn(len(base)+1)]
					}
					base = append(base, int32(n), int32(-1), int32(n+7))
					checkSelAgainstCompose(t, rng, c, base, op, operand, label)
				}
			}
		}
	}
}

// TestBlockedKernelsMatchWholeRange asserts the blocked fused scans —
// which lower the predicate once and chunk at cost-model block borders —
// equal the compose over the whole range and over the every-row
// selection, for every mode × type × block length on a column long
// enough to split into many chunks, and report per-chunk counts that sum
// to N.
func TestBlockedKernelsMatchWholeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 1000
	for _, c := range fuzzColumns(rng, n) {
		base := c.FilterRange(0, n, RangeNe, IntValue(math.MaxInt64), nil)
		for _, op := range fusedOps {
			for oi, operand := range fuzzOperands(rng) {
				label := fmt.Sprintf("col=%s op=%d operand#%d", c.Name(), op, oi)
				checkAgainstCompose(t, rng, c, 0, n, op, operand, label)
				checkSelAgainstCompose(t, rng, c, base, op, operand, label)
			}
		}
	}
}

// checkModeAgainstFull compares a mode-restricted blocked result to the
// full compose result: N always matches; the sum matches bit for bit for
// the sum-maintaining mode — on float columns too, whatever the chunking
// — and the extrema for extrema-maintaining modes, and what a mode does
// not maintain comes back untouched (+0, ±Inf).
func checkModeAgainstFull(t *testing.T, label string, got, want FilterAgg, mode FusedMode) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	wantSum := want.Sum
	if mode != FusedSum {
		wantSum = 0
	}
	if !eqFloat(got.Sum, wantSum) {
		t.Fatalf("%s: sum = %v, want %v", label, got.Sum, wantSum)
	}
	wantMin, wantMax := want.Min, want.Max
	if mode != FusedMin {
		wantMin = math.Inf(1)
	}
	if mode != FusedMax {
		wantMax = math.Inf(-1)
	}
	if !eqFloat(got.Min, wantMin) || !eqFloat(got.Max, wantMax) {
		t.Fatalf("%s: extrema = (%v, %v), want (%v, %v)", label, got.Min, got.Max, wantMin, wantMax)
	}
}

// TestFilterAggRangeEmpty pins the zero-qualifier contract: Min/Max are
// ±Inf, matching MinMaxRange over an empty range, and Sum is +0.
func TestFilterAggRangeEmpty(t *testing.T) {
	c := NewIntColumn("v", []int64{1, 2, 3})
	fa, _ := rangeScan(c, 0, 3, 0, RangeGt, IntValue(100), FusedSum, nil)
	if fa.N != 0 || math.Float64bits(fa.Sum) != 0 || !math.IsInf(fa.Min, 1) || !math.IsInf(fa.Max, -1) {
		t.Fatalf("no-qualifier FilterAggRangeBlocked = %+v", fa)
	}
	fa, _ = rangeScan(c, 2, 2, 0, RangeGe, IntValue(0), FusedMin, nil)
	if fa.N != 0 || fa.Sum != 0 || !math.IsInf(fa.Min, 1) {
		t.Fatalf("empty-range FilterAggRangeBlocked = %+v", fa)
	}
	if fa, _ = selScan(c, nil, 0, RangeGe, IntValue(0), FusedSum); fa.N != 0 || fa.Sum != 0 {
		t.Fatalf("empty-selection FilterAggSelBlocked = %+v", fa)
	}
	fc := NewFloatColumn("f", []float64{math.Copysign(0, -1), 1})
	if fa, _ = rangeScan(fc, 0, 2, 0, RangeLt, FloatValue(1), FusedSum, nil); fa.N != 1 || math.Float64bits(fa.Sum) != 0 {
		t.Fatalf("a lone -0 qualifier sums to %v over %d rows, want +0", fa.Sum, fa.N)
	}
}

// TestFilterAggExactSums verifies the int64 accumulation is exact where
// a float64 accumulator would round — within one chunk and across
// chunks — and that the extrema modes see the same qualifiers.
func TestFilterAggExactSums(t *testing.T) {
	big := int64(1) << 60
	c := NewIntColumn("v", []int64{big, 1, big, 1, -big, 1})
	for _, bl := range []int{0, 4} {
		// Qualifying values: 1, 1, -big, 1.
		fa, _ := rangeScan(c, 0, 6, bl, RangeNe, IntValue(big), FusedSum, nil)
		if fa.N != 4 || fa.Sum != float64(3-big) {
			t.Fatalf("bl=%d: exact sum = %+v, want %d", bl, fa, 3-big)
		}
		mn, _ := rangeScan(c, 0, 6, bl, RangeNe, IntValue(big), FusedMin, nil)
		mx, _ := rangeScan(c, 0, 6, bl, RangeNe, IntValue(big), FusedMax, nil)
		if mn.N != 4 || mn.Min != float64(-big) || mx.Max != 1 {
			t.Fatalf("bl=%d: extrema = %v, %v", bl, mn.Min, mx.Max)
		}
	}
}

// TestFilterAggMergeOrder verifies chunked scans merge to the
// single-chunk answer (the operator layer splits scans at cost-model
// block borders), both through Merge by hand and through the blocked
// scan's own chunking — on an integer column and on a float column whose
// left-to-right sum rounds differently from any chunked one.
func TestFilterAggMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 5000)
	flts := make([]float64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
		flts[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	for _, c := range []*Column{NewIntColumn("v", vals), NewFloatColumn("f", flts)} {
		op, operand := RangeLt, IntValue(500)
		whole, _ := rangeScan(c, 0, c.Len(), 0, op, operand, FusedSum, nil)
		if want := composeAgg(c, c.FilterRange(0, c.Len(), op, operand, nil)); whole.N != want.N || whole.Sum != want.Sum {
			t.Fatalf("%s: whole = %v over %d, compose = %v over %d", c.Name(), whole.Sum, whole.N, want.Sum, want.N)
		}
		var merged ExactSum
		n := 0
		for lo := 0; lo < c.Len(); lo += 512 {
			var part ExactSum
			fa, _ := c.FilterAggRangeBlocked(lo, lo+512, 0, op, operand, FusedSum, nil, &part, nil)
			merged.Merge(&part)
			n += fa.N
		}
		if n != whole.N || merged.Round() != whole.Sum {
			t.Fatalf("%s: merged = %v over %d, whole = %v over %d", c.Name(), merged.Round(), n, whole.Sum, whole.N)
		}
		if chunked, _ := rangeScan(c, 0, c.Len(), 512, op, operand, FusedSum, nil); chunked.N != whole.N || chunked.Sum != whole.Sum {
			t.Fatalf("%s: chunked = %v over %d, whole = %v over %d", c.Name(), chunked.Sum, chunked.N, whole.Sum, whole.N)
		}
	}
}

// TestSumRangeInt64Exact pins the typed integer sum kernel.
func TestSumRangeInt64Exact(t *testing.T) {
	big := int64(1) << 60
	c := NewIntColumn("v", []int64{big, big, big, -big, 5, -2, 9, 11})
	sum, n, ok := c.SumRangeInt64(0, 8)
	if !ok || n != 8 || sum != 2*big+23 {
		t.Fatalf("SumRangeInt64 = %d, %d, %v", sum, n, ok)
	}
	// Unroll remainder handling: sub-multiple-of-4 lengths.
	for lo := 0; lo < 8; lo++ {
		for hi := lo; hi <= 8; hi++ {
			var want int64
			for i := lo; i < hi; i++ {
				want += c.Int(i)
			}
			got, _, _ := c.SumRangeInt64(lo, hi)
			if got != want {
				t.Fatalf("SumRangeInt64(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	bc := NewBoolColumn("b", []bool{true, true, false, true, false, true, true})
	if sum, n, ok := bc.SumRangeInt64(0, 7); !ok || sum != 5 || n != 7 {
		t.Fatalf("bool SumRangeInt64 = %d, %d, %v", sum, n, ok)
	}
	fc := NewFloatColumn("f", []float64{1, 2})
	if _, _, ok := fc.SumRangeInt64(0, 2); ok {
		t.Fatal("float column should report ok=false")
	}
}

// TestPassCacheLRU asserts eviction order: a hot predicate's memo table
// survives a storm of 64+ distinct cold predicates because eviction
// drops the least-recently-used table, not an arbitrary one.
func TestPassCacheLRU(t *testing.T) {
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = fmt.Sprintf("w%03d", i%40)
	}
	c := NewStringColumn("s", vals)
	hot := StringValue("w007")
	hotKey := passKey{op: RangeEq, operand: hot}

	c.FilterRange(0, c.Len(), RangeEq, hot, nil)
	for i := 0; i < 2*maxPassTables; i++ {
		// One cold, never-repeated predicate...
		c.FilterRange(0, c.Len(), RangeLt, StringValue(fmt.Sprintf("cold%04d", i)), nil)
		// ...interleaved with the hot one staying in use.
		c.FilterRange(0, c.Len(), RangeEq, hot, nil)
	}
	c.passMu.Lock()
	_, hotAlive := c.passCache[hotKey]
	size := len(c.passCache)
	c.passMu.Unlock()
	if !hotAlive {
		t.Fatal("hot predicate table was evicted by cold traffic")
	}
	if size > maxPassTables {
		t.Fatalf("pass cache grew to %d tables, cap is %d", size, maxPassTables)
	}
}

// TestCountPassingMatchesSingleAccumulator holds the unrolled string
// count to the one-accumulator loop it replaced, at every length around
// the 4-wide unroll (0–9) and at a long span with a ragged tail.
func TestCountPassingMatchesSingleAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pass := make([]bool, 11)
	for i := range pass {
		pass[i] = rng.Intn(2) == 0
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1027} {
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(len(pass)))
		}
		want := 0
		for _, code := range codes {
			want += b2i(pass[code])
		}
		if got := countPassing(codes, pass); got != want {
			t.Fatalf("n=%d: countPassing = %d, single-accumulator loop = %d", n, got, want)
		}
	}
}

// TestFusedScansCountCoveredBytes pins what KernelBytes counts for the
// fused scans: the bytes of the span (or the selection) the scan covers,
// once per call, whether its blocks are read, kept in a memo or answered
// from one.
func TestFusedScansCountCoveredBytes(t *testing.T) {
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	c := NewIntColumn("v", vals)
	var memo FusedMemo
	for pass := 0; pass < 3; pass++ {
		m := &memo
		if pass == 0 {
			m = nil
		}
		before := KernelBytes()
		rangeScan(c, -5, 9_000, 1024, RangeLt, IntValue(50), FusedSum, m)
		if got := KernelBytes() - before; got != 9_000*8 {
			t.Fatalf("pass %d: the range scan counted %d bytes, want %d", pass, got, 9_000*8)
		}
	}
	sel := []int32{3, 900, 1500, 4000, 9999, 20_000}
	before := KernelBytes()
	selScan(c, sel, 1024, RangeLt, IntValue(50), FusedSum)
	if got := KernelBytes() - before; got != int64(len(sel))*8 {
		t.Fatalf("the selection scan counted %d bytes, want %d", got, len(sel)*8)
	}
}

// TestFusedMemoCost: a memo holds one 24-byte partial per complete block
// of the column and nothing more, and a scan under another key reuses
// that room.
func TestFusedMemoCost(t *testing.T) {
	if size := unsafe.Sizeof(blockPartial{}); size > 24 {
		t.Fatalf("a block partial takes %d bytes, want ≤ 24", size)
	}
	c := NewFloatColumn("v", make([]float64, 10_000))
	var memo FusedMemo
	rangeScan(c, 0, 5_000, 1024, RangeLt, FloatValue(1), FusedSum, &memo)
	if len(memo.parts) != 9 || cap(memo.parts) != 9 {
		t.Fatalf("memo of a 10 000-row column in 1 024-row blocks holds %d partials (cap %d), want 9", len(memo.parts), cap(memo.parts))
	}
	kept := &memo.parts[0]
	rangeScan(c, 0, 5_000, 1024, RangeGt, FloatValue(1), FusedSum, &memo)
	if &memo.parts[0] != kept {
		t.Fatal("a scan under another key reallocated the memo")
	}
}
