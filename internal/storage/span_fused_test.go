package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fused-kernel property suite: the blocked fused scans
// (FilterAggRangeBlocked, FilterAggSelBlocked) must equal the
// compose-of-parts path — FilterRange (or FilterSel) to a selection
// vector, then a scalar aggregation loop over the selection — for all
// operators × column types × modes × block lengths × edge cases (NaN data
// and operands, empty and inverted ranges, out-of-bounds clamping). CI
// runs this under -race with the rest of the package.

var (
	fusedOps       = []RangeOp{RangeEq, RangeNe, RangeLt, RangeLe, RangeGt, RangeGe}
	fusedModes     = []FusedMode{FusedCount, FusedSum, FusedMinMax, FusedFull}
	fusedBlockLens = []int{0, 1, 7, 64, 1024, 10000}
)

// composeAgg is the scalar reference: aggregate over the selection
// exactly as a filter-then-add loop would — int64 accumulation for
// integer-backed columns (the fused kernels' exactness contract; it
// matches a float loop bitwise whenever that loop is itself exact, and
// is the more accurate answer beyond 2^53), float left-to-right for
// float columns.
func composeAgg(c *Column, sel []int32) FilterAgg {
	want := emptyFilterAgg()
	want.Exact = c.Type() != Float64
	for _, p := range sel {
		v := c.Float(int(p))
		if want.Exact {
			want.IntSum += c.Int(int(p))
		} else {
			want.Sum += v
		}
		want.N++
		if v < want.Min {
			want.Min = v
		}
		if v > want.Max {
			want.Max = v
		}
	}
	if want.Exact {
		want.Sum = float64(want.IntSum)
	}
	return want
}

// eqFloat compares aggregates bitwise, treating two NaNs as equal.
func eqFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// composeRange is the reference answer for a range scan: FilterRange,
// then composeAgg. FilterRange itself is first held to a scalar
// Value.Compare loop, which anchors the whole suite to the system
// comparison semantics — in particular the integer-bound lowering of
// float comparisons.
func composeRange(t *testing.T, c *Column, lo, hi int, op RangeOp, operand Value, label string) FilterAgg {
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
	return composeAgg(c, sel)
}

// checkBlocked runs one blocked scan — scan hands the counting onBlock to
// FilterAggRangeBlocked or FilterAggSelBlocked — and holds its result and
// its per-chunk counts to want.
func checkBlocked(t *testing.T, label string, typ Type, mode FusedMode, bl int, want FilterAgg, scan func(onBlock func(start, count int)) FilterAgg) {
	t.Helper()
	blocks, counted := 0, 0
	got := scan(func(_, k int) { blocks++; counted += k })
	label = fmt.Sprintf("%s mode=%d bl=%d", label, mode, bl)
	checkModeAgainstFull(t, label, got, want, mode, typ, blocks)
	if counted != want.N {
		t.Fatalf("%s: onBlock counts sum to %d, want %d", label, counted, want.N)
	}
}

func checkAgainstCompose(t *testing.T, c *Column, lo, hi int, op RangeOp, operand Value, label string) {
	t.Helper()
	want := composeRange(t, c, lo, hi, op, operand, label)
	label = fmt.Sprintf("%s range[%d,%d)", label, lo, hi)
	for _, mode := range fusedModes {
		for _, bl := range fusedBlockLens {
			checkBlocked(t, label, c.Type(), mode, bl, want, func(onBlock func(int, int)) FilterAgg {
				return c.FilterAggRangeBlocked(lo, hi, bl, op, operand, mode, onBlock)
			})
		}
	}
}

func checkSelAgainstCompose(t *testing.T, c *Column, base []int32, op RangeOp, operand Value, label string) {
	t.Helper()
	want := composeAgg(c, c.FilterSel(base, op, operand, nil))
	for _, mode := range fusedModes {
		for _, bl := range fusedBlockLens {
			checkBlocked(t, label+" sel", c.Type(), mode, bl, want, func(onBlock func(int, int)) FilterAgg {
				return c.FilterAggSelBlocked(base, bl, op, operand, mode, onBlock)
			})
		}
	}
}

// fuzzColumns builds one column per type with adversarial values:
// duplicates, extremes, NaN/Inf floats, and a small string dictionary.
func fuzzColumns(rng *rand.Rand, n int) []*Column {
	ints := make([]int64, n)
	flts := make([]float64, n)
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
		bools[i] = rng.Intn(2) == 0
		strs[i] = words[rng.Intn(len(words))]
	}
	return []*Column{
		NewIntColumn("i", ints),
		NewFloatColumn("f", flts),
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
					label := fmt.Sprintf("round=%d type=%v op=%d operand#%d", round, c.Type(), op, oi)
					for _, r := range ranges {
						checkAgainstCompose(t, c, r[0], r[1], op, operand, label)
					}
					// Selection-refinement forms over a random base
					// selection (including out-of-range positions, which
					// both paths must skip).
					base := c.FilterRange(0, n, RangeNe, IntValue(math.MaxInt64), nil)
					if len(base) > 0 {
						base = base[:rng.Intn(len(base)+1)]
					}
					base = append(base, int32(n), int32(-1), int32(n+7))
					checkSelAgainstCompose(t, c, base, op, operand, label)
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
				label := fmt.Sprintf("type=%v op=%d operand#%d", c.Type(), op, oi)
				checkAgainstCompose(t, c, 0, n, op, operand, label)
				checkSelAgainstCompose(t, c, base, op, operand, label)
			}
		}
	}
}

// checkModeAgainstFull compares a mode-restricted blocked result to the
// full compose result: N always matches; the sum matches for
// sum-maintaining modes and the extrema for extrema-maintaining modes,
// and what a mode does not maintain comes back as the empty value. A
// Float64 sum is compared only when at most one chunk contributed
// (blocks counts the onBlock calls): merging chunk partials reassociates
// float addition, while a single chunk adds left to right exactly as the
// compose does.
func checkModeAgainstFull(t *testing.T, label string, got, want FilterAgg, mode FusedMode, typ Type, blocks int) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if got.Exact && got.Sum != float64(got.IntSum) {
		t.Fatalf("%s: exact sum mismatch: Sum=%v IntSum=%d", label, got.Sum, got.IntSum)
	}
	switch {
	case mode == FusedCount || mode == FusedMinMax:
		if got.Sum != 0 || got.IntSum != 0 {
			t.Fatalf("%s: unmaintained sum = %v/%d, want 0", label, got.Sum, got.IntSum)
		}
	case typ != Float64:
		if got.IntSum != want.IntSum || !eqFloat(got.Sum, want.Sum) {
			t.Fatalf("%s: sum = %v/%d, want %v/%d", label, got.Sum, got.IntSum, want.Sum, want.IntSum)
		}
	case blocks <= 1:
		if !eqFloat(got.Sum, want.Sum) {
			t.Fatalf("%s: float sum = %v, want %v", label, got.Sum, want.Sum)
		}
	}
	wantMin, wantMax := want.Min, want.Max
	if mode == FusedCount || mode == FusedSum {
		wantMin, wantMax = math.Inf(1), math.Inf(-1)
	}
	if !eqFloat(got.Min, wantMin) || !eqFloat(got.Max, wantMax) {
		t.Fatalf("%s: extrema = (%v, %v), want (%v, %v)", label, got.Min, got.Max, wantMin, wantMax)
	}
}

// TestFilterAggRangeEmpty pins the zero-qualifier contract: Min/Max are
// ±Inf and Sum 0, matching MinMaxRange over an empty range.
func TestFilterAggRangeEmpty(t *testing.T) {
	c := NewIntColumn("v", []int64{1, 2, 3})
	fa := c.FilterAggRangeBlocked(0, 3, 0, RangeGt, IntValue(100), FusedFull, nil)
	if fa.N != 0 || fa.Sum != 0 || !math.IsInf(fa.Min, 1) || !math.IsInf(fa.Max, -1) {
		t.Fatalf("no-qualifier FilterAggRangeBlocked = %+v", fa)
	}
	fa = c.FilterAggRangeBlocked(2, 2, 0, RangeGe, IntValue(0), FusedFull, nil)
	if fa.N != 0 || !math.IsInf(fa.Min, 1) {
		t.Fatalf("empty-range FilterAggRangeBlocked = %+v", fa)
	}
}

// TestFilterAggExactSums verifies the int64 accumulation is exact where
// a float64 accumulator would round — within one chunk and across merged
// chunks.
func TestFilterAggExactSums(t *testing.T) {
	big := int64(1) << 60
	c := NewIntColumn("v", []int64{big, 1, big, 1, -big, 1})
	for _, bl := range []int{0, 4} {
		fa := c.FilterAggRangeBlocked(0, 6, bl, RangeNe, IntValue(big), FusedFull, nil)
		// Qualifying values: 1, 1, -big, 1.
		if !fa.Exact || fa.IntSum != 3-big {
			t.Fatalf("bl=%d: exact sum = %+v, want IntSum %d", bl, fa, 3-big)
		}
		if fa.N != 4 || fa.Min != float64(-big) || fa.Max != 1 {
			t.Fatalf("bl=%d: extrema = %+v", bl, fa)
		}
	}
}

// TestFilterAggMergeOrder verifies chunked scans merge to the
// single-chunk answer (the operator layer splits scans at cost-model
// block borders), both through Merge by hand and through the blocked
// scan's own chunking.
func TestFilterAggMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	c := NewIntColumn("v", vals)
	op, operand := RangeLt, IntValue(500)
	whole := c.FilterAggRangeBlocked(0, len(vals), 0, op, operand, FusedFull, nil)
	if want := composeAgg(c, c.FilterRange(0, len(vals), op, operand, nil)); whole != want {
		t.Fatalf("whole = %+v, compose = %+v", whole, want)
	}
	merged := emptyFilterAgg()
	for lo := 0; lo < len(vals); lo += 512 {
		merged.Merge(c.FilterAggRangeBlocked(lo, lo+512, 0, op, operand, FusedFull, nil))
	}
	if merged != whole {
		t.Fatalf("merged = %+v, whole = %+v", merged, whole)
	}
	if chunked := c.FilterAggRangeBlocked(0, len(vals), 512, op, operand, FusedFull, nil); chunked != whole {
		t.Fatalf("chunked = %+v, whole = %+v", chunked, whole)
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

// TestPrefixInts pins the exact prefix-sum build kernel.
func TestPrefixInts(t *testing.T) {
	c := NewIntColumn("v", []int64{3, -1, 4, 1, -5})
	dst := make([]int64, 6)
	if !c.PrefixInts(dst) {
		t.Fatal("PrefixInts refused an int column")
	}
	want := []int64{0, 3, 2, 6, 7, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	if c.PrefixInts(make([]int64, 3)) {
		t.Fatal("wrong-length dst should be refused")
	}
	fc := NewFloatColumn("f", []float64{1})
	if fc.PrefixInts(make([]int64, 2)) {
		t.Fatal("float column should be refused")
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
