package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// Native fuzz targets for the predicate lowering and the compare+compress
// kernels. These complement the fixed differential matrix in
// simd_diff_test.go: the fuzzer explores the (operator, operand, value)
// cube beyond the hand-picked edges, with the scalar semantics
// (Value.Compare via passFloat) as ground truth. CI runs them for a few
// seconds per target as a smoke; longer local runs just work:
//
//	go test -fuzz=FuzzIntPredFor -fuzztime=60s ./internal/storage/
//
// On hosts without AVX2 the kernel targets still run — the dispatch
// wrappers fall back to the scalar loops, so the differential is vacuous
// but never wrong.

// fuzzEdgeBits are float64 payloads whose int64 reinterpretations and
// float values both sit on lowering boundaries: MinInt64/MaxInt64
// rounding, the 2^53 exactness cliff, NaN, infinities, and signed zero.
var fuzzEdgeBits = []uint64{
	math.Float64bits(0),
	math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(1),
	math.Float64bits(-1),
	math.Float64bits(math.NaN()),
	math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)),
	math.Float64bits(1 << 53),
	math.Float64bits(-(1 << 53)),
	math.Float64bits(1<<53 + 2),
	math.Float64bits(math.MaxInt64),
	math.Float64bits(math.MinInt64),
	math.Float64bits(9.3e18), // just above MaxInt64
	math.Float64bits(0.5),
}

var fuzzEdgeInts = []int64{
	0, 1, -1,
	math.MaxInt64, math.MinInt64,
	math.MaxInt64 - 1, math.MinInt64 + 1,
	1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1),
	100, -100,
}

// FuzzIntPredFor checks the integer lowering of `float64(v) op b`
// against the float reference for arbitrary (op, b, v): the lowered
// interval predicate must agree with passFloat bit for bit, and the
// constant-outcome flags must be consistent with the per-value verdicts.
func FuzzIntPredFor(f *testing.F) {
	for _, bb := range fuzzEdgeBits {
		for _, v := range fuzzEdgeInts {
			for op := 0; op < 6; op++ {
				f.Add(uint8(op), bb, v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, opByte uint8, bBits uint64, v int64) {
		op := RangeOp(opByte % 6)
		b := math.Float64frombits(bBits)
		p, none, all := intPredFor(op, b)
		if none && all {
			t.Fatalf("op=%d b=%v: none and all both true", op, b)
		}
		wLt, wGt, wEq := op.wants()
		want := passFloat(float64(v), b, wLt, wGt, wEq)
		if got := p.test(v); got != want {
			t.Fatalf("op=%d b=%v v=%d: lowered pred says %d, float reference says %d (pred %+v)",
				op, b, v, got, want, p)
		}
		if none && want != 0 {
			t.Fatalf("op=%d b=%v v=%d: flagged none but float reference passes", op, b, v)
		}
		if all && want != 1 {
			t.Fatalf("op=%d b=%v v=%d: flagged all but float reference fails", op, b, v)
		}
	})
}

// fuzzWords is the string-column dictionary and string-operand pool of
// FuzzFusedBlocked: sorted neighbours, a trailing-space near-duplicate, an
// above-everything word and the empty string.
var fuzzWords = []string{"apple", "apple ", "banana", "fig", "pear", "quince", "zzz", ""}

// wideWords is the wide dictionary of FuzzFusedBlocked's string columns
// with bit 2 of the type byte set: 250 to 260 words, so a dictionary
// lands on either side of maskCodes, where the string count leaves its
// bitmap kernel for the table loop.
var wideWords = func() []string {
	w := make([]string, 260)
	for i := range w {
		w[i] = fmt.Sprintf("w%03d", i)
	}
	return w
}()

// tieFloats is the palette of FuzzFusedBlocked's float columns with bit 2
// of the type byte set: both zeros and NaN, which qualify together under
// `>= 0` and `<= 0` and make MIN and MAX ties that only the first-wins
// rule settles, and values 2^80 apart, whose block sums need three
// doubles.
var tieFloats = []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, 0x1p80, -0x1p80, 0x1p-80}

// FuzzFusedBlocked holds the blocked fused scans — the storage entry
// points operator.FuseFilterAgg calls — to the scalar compose (FilterRange
// or FilterSel, then a per-value loop, its sum compared bit for bit on
// float columns too) over a fuzzer-chosen
// column type, range, block length, mode, operator and operand. The
// operand crosses every coercion path: a raw float64 payload (NaN, ±Inf,
// ±2^53 and the MinInt64/MaxInt64 rounding edges come from the seed
// corpus), the same bits as an int64, or a string. The range form then
// runs through a FusedMemo too (checkMemo).
func FuzzFusedBlocked(f *testing.F) {
	for i, bb := range fuzzEdgeBits {
		for typ := uint8(0); typ < 4; typ++ {
			// opSel cycles op, mode and operand kind together.
			f.Add(typ, int64(i), int16(-3), int16(300), uint16(7), uint8(i*25+int(typ)), bb)
		}
	}
	for i, v := range fuzzEdgeInts {
		f.Add(uint8(0), v, int16(0), int16(255), uint16(64), uint8(24+i*7), uint64(v))
		f.Add(uint8(0), v, int16(5), int16(2), uint16(0), uint8(i), math.Float64bits(float64(v)))
	}
	// Float sums (opSel 6..11: FusedSum, float operand) over whole columns
	// at block lengths that cut them into many chunks.
	for i, bl := range []uint16{0, 1, 3, 64, 1024} {
		f.Add(uint8(1), int64(1000+i), int16(0), int16(415), bl, uint8(6+i), math.Float64bits(1))
	}
	// String counts (opSel 48..53: FusedCount, string operand) over wide
	// dictionaries of 250 to 260 words.
	for k := 0; k < 11; k++ {
		f.Add(uint8(7+8*k), int64(2000+k), int16(0), int16(415), uint16(k%2*64), uint8(48+k%6), uint64(125+k))
	}
	// Memoized blocks over the tieFloats palette in 16-row blocks: MIN
	// under `>= 0` and MAX under `<= 0` (opSel 17, 21), where ±0 and NaN
	// qualify and the zeros tie; SUM under `!= 1` (opSel 7), whose blocks
	// mix 2^80, 1 and 2^-80 and cannot be kept as two doubles; and SUM
	// under `>= 0` (opSel 11), where NaN qualifiers refuse the block.
	for k, m := range []struct {
		opSel   uint8
		operand float64
	}{{17, 0}, {21, 0}, {7, 1}, {11, 0}} {
		for j := int64(0); j < 3; j++ {
			f.Add(uint8(5), 3000+10*int64(k)+j, int16(-5), int16(410), uint16(16), m.opSel, math.Float64bits(m.operand))
		}
	}
	// Cut ends: 16- and 64-row blocks, spans whose ends land on a
	// multiple of 8 (64, 40) and between two (13, 301), through every
	// mode: int sums (opSel 6), tieFloats MIN under `>= 0` (17) and SUM
	// under `!= 1` (7), string counts (48).
	for k, lohi := range [][2]int16{{13, 301}, {64, 40}, {40, 301}} {
		for _, bl := range []uint16{16, 64} {
			f.Add(uint8(0), 4000+int64(k), lohi[0], lohi[1], bl, uint8(6), uint64(1<<62))
			f.Add(uint8(5), 4010+int64(k), lohi[0], lohi[1], bl, uint8(17), math.Float64bits(0))
			f.Add(uint8(5), 4020+int64(k), lohi[0], lohi[1], bl, uint8(7), math.Float64bits(1))
			f.Add(uint8(3), 4030+int64(k), lohi[0], lohi[1], bl, uint8(48), uint64(k))
		}
	}
	f.Fuzz(func(t *testing.T, typByte uint8, seed int64, loRaw, hiRaw int16, blRaw uint16, opSel uint8, bBits uint64) {
		c, words, next := fuzzColumn(typByte, seed)
		n := c.Len()
		op, mode, operand := fuzzConjunct(opSel, bBits, words)

		// Ranges reach past both ends and invert; block lengths run from
		// "whole span" (0) through one value to wider than the column.
		lo, hi := int(loRaw)%(n+16), int(hiRaw)%(n+16)
		bl := int(blRaw % 1100)
		// The selection form refines a thinned ascending base that ends in
		// out-of-range positions, which both paths must skip.
		base := make([]int32, 0, n+2)
		for i := 0; i < n; i++ {
			if next()>>33%3 != 0 {
				base = append(base, int32(i))
			}
		}
		base = append(base, int32(n), -1)

		label := fmt.Sprintf("type=%v n=%d op=%d operand=%+v", c.Type(), n, op, operand)
		check := func() {
			sel := composeRange(t, c, lo, hi, op, operand, label)
			checkBlocked(t, fmt.Sprintf("%s range[%d,%d)", label, lo, hi), c, sel, mode, bl, rangeFirstBlock(lo, bl), func() (FilterAgg, []int32) {
				return rangeScan(c, lo, hi, bl, op, operand, mode, nil)
			})
			checkMemo(t, label, c, lo, hi, bl, op, operand, mode)
			sel = c.FilterSel(base, op, operand, nil)
			checkBlocked(t, label+" sel", c, sel, mode, bl, selFirstBlock(base, bl), func() (FilterAgg, []int32) {
				return selScan(c, base, bl, op, operand, mode)
			})
		}
		check()
		if simdAvailable() {
			// Fuzz the scalar arms of the dispatched loops too.
			restore := setSIMD(false)
			defer restore()
			check()
		}
	})
}

// fuzzColumn is the column FuzzFusedBlocked and FuzzFusedMemoSteps draw
// from typByte and seed — its type is typByte%4; bit 2 draws a float
// column from tieFloats and a string column from 250 to 260 words — with
// the words a string operand is drawn from and the generator, which the
// caller may draw on further.
func fuzzColumn(typByte uint8, seed int64) (*Column, []string, func() uint64) {
	words := fuzzWords
	wide := typByte%4 == 3 && typByte&4 != 0
	if wide {
		words = wideWords[:250+int(typByte/8)%11]
	}

	// Deterministic column from the seed: a Weyl sequence mixed with
	// the edge sets, so every run sits on lowering boundaries.
	x := uint64(seed)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	n := int(next() >> 32 % 400)
	var c *Column
	switch typByte % 4 {
	case 0:
		v := make([]int64, n)
		for i := range v {
			if r := next(); r%4 == 0 {
				v[i] = fuzzEdgeInts[(r>>32)%uint64(len(fuzzEdgeInts))]
			} else {
				v[i] = int64(r)
			}
		}
		c = NewIntColumn("i", v)
	case 1:
		v := make([]float64, n)
		for i := range v {
			if r := next(); typByte&4 != 0 {
				v[i] = tieFloats[(r>>32)%uint64(len(tieFloats))]
			} else if r%4 == 0 {
				v[i] = math.Float64frombits(fuzzEdgeBits[(r>>32)%uint64(len(fuzzEdgeBits))])
			} else {
				v[i] = math.Float64frombits(r)
			}
		}
		c = NewFloatColumn("f", v)
	case 2:
		v := make([]bool, n)
		for i := range v {
			v[i] = next()>>40&1 == 1
		}
		c = NewBoolColumn("b", v)
	default:
		v := make([]string, n)
		for i := range v {
			v[i] = words[(next()>>32)%uint64(len(words))]
		}
		if wide {
			// Intern every word first, so the dictionary holds all
			// of them whichever the column draws.
			full := NewStringColumn("s", append(append([]string(nil), words...), v...))
			c, _ = full.Slice(len(words), len(words)+n)
		} else {
			c = NewStringColumn("s", v)
		}
	}
	return c, words, next
}

// fuzzConjunct draws a fuzz target's operator, mode and operand: opSel
// cycles the three together, and the operand crosses every coercion path
// — bBits as a float64 payload, the same bits as an int64, or one of
// words.
func fuzzConjunct(opSel uint8, bBits uint64, words []string) (RangeOp, FusedMode, Value) {
	var operand Value
	switch opSel / 24 % 3 {
	case 0:
		operand = FloatValue(math.Float64frombits(bBits))
	case 1:
		operand = IntValue(int64(bBits))
	default:
		operand = StringValue(words[bBits%uint64(len(words))])
	}
	return RangeOp(opSel % 6), FusedMode(opSel / 6 % 4), operand
}

// checkMemo runs [lo, hi) and a span overlapping it by half, twice over,
// through one FusedMemo, then [lo, hi) under another operand (a value of
// the column) and under the first again (checkMemoSpans).
func checkMemo(t *testing.T, label string, c *Column, lo, hi, bl int, op RangeOp, operand Value, mode FusedMode) {
	t.Helper()
	mid := lo + (hi-lo)/2
	spans := []memoSpan{{lo, hi, operand}, {mid, hi + (hi - lo), operand}, {lo, hi, operand}, {mid, hi + (hi - lo), operand}}
	if c.Len() > 0 {
		spans = append(spans, memoSpan{lo, hi, c.Value(c.Len() / 2)}, memoSpan{lo, hi, operand})
	}
	checkMemoSpans(t, label, c, bl, op, mode, spans)
}

// FuzzFusedMemoSteps holds a slide's steps through one FusedMemo to the
// memo-free scan (checkMemoSpans): a column, block length, conjunct and
// mode drawn as FuzzFusedBlocked draws them, and a path of finger
// positions whose consecutive pairs are the steps' spans, slid twice —
// the second time every position moved by jitter rows, as a user's next
// slide lands a few rows away. Step ends cut blocks and read them,
// later steps fold the blocks earlier ones kept, and a span that covers
// a block earlier steps only cut keeps it.
func FuzzFusedMemoSteps(f *testing.F) {
	// A path is little-endian uint16 positions, each taken modulo the
	// column's length plus 16 and moved 8 back, so spans reach past both
	// ends.
	positions := func(pos ...uint16) []byte {
		b := make([]byte, 2*len(pos))
		for i, p := range pos {
			binary.LittleEndian.PutUint16(b[2*i:], p+8)
		}
		return b
	}
	down := positions(3, 40, 77, 130, 171, 250, 333)
	up := positions(390, 301, 222, 150, 99, 20, 0)
	for k, bl := range []uint16{16, 64, 8, 7, 1024} {
		f.Add(uint8(0), 5000+int64(k), bl, uint8(6), uint64(1<<62), int8(3), down)
		f.Add(uint8(5), 5010+int64(k), bl, uint8(17), math.Float64bits(0), int8(-5), up)
		f.Add(uint8(5), 5020+int64(k), bl, uint8(21), math.Float64bits(0), int8(2), down)
		f.Add(uint8(5), 5030+int64(k), bl, uint8(7), math.Float64bits(1), int8(7), up)
		f.Add(uint8(1), 5040+int64(k), bl, uint8(11), math.Float64bits(0), int8(-1), down)
		f.Add(uint8(3), 5050+int64(k), bl, uint8(48), uint64(k), int8(9), up)
	}
	f.Fuzz(func(t *testing.T, typByte uint8, seed int64, blRaw uint16, opSel uint8, bBits uint64, jitter int8, path []byte) {
		c, words, _ := fuzzColumn(typByte, seed)
		n := c.Len()
		op, mode, operand := fuzzConjunct(opSel, bBits, words)
		var pos []int
		for i := 0; i+1 < len(path) && len(pos) < 64; i += 2 {
			pos = append(pos, int(binary.LittleEndian.Uint16(path[i:]))%(n+16)-8)
		}
		var spans []memoSpan
		for pass := 0; pass < 2; pass++ {
			for i := 1; i < len(pos); i++ {
				lo, hi := pos[i-1], pos[i]
				if lo > hi {
					lo, hi = hi, lo
				}
				spans = append(spans, memoSpan{lo + pass*int(jitter), hi + pass*int(jitter), operand})
			}
		}
		label := fmt.Sprintf("type=%v n=%d op=%d operand=%+v", c.Type(), n, op, operand)
		bl := int(blRaw % 1100)
		checkMemoSpans(t, label, c, bl, op, mode, spans)
		if simdAvailable() {
			restore := setSIMD(false)
			defer restore()
			checkMemoSpans(t, label+" scalar", c, bl, op, mode, spans)
		}
	})
}

// memoSpan is one scan of checkMemoSpans.
type memoSpan struct {
	lo, hi  int
	operand Value
}

// checkMemoSpans runs spans in order through one FusedMemo and holds
// every run to the memo-free scan of the same span: N, Min and Max bits,
// the bits of the exact sum rounded once, and the per-block counts.
func checkMemoSpans(t *testing.T, label string, c *Column, bl int, op RangeOp, mode FusedMode, spans []memoSpan) {
	t.Helper()
	var memo FusedMemo
	for i, s := range spans {
		want, wantCounts := rangeScan(c, s.lo, s.hi, bl, op, s.operand, mode, nil)
		got, gotCounts := rangeScan(c, s.lo, s.hi, bl, op, s.operand, mode, &memo)
		at := fmt.Sprintf("%s mode=%d bl=%d memo run %d range[%d,%d) operand %+v", label, mode, bl, i, s.lo, s.hi, s.operand)
		bits := func(a FilterAgg) [4]uint64 {
			return [4]uint64{uint64(a.N), math.Float64bits(a.Sum), math.Float64bits(a.Min), math.Float64bits(a.Max)}
		}
		if bits(got) != bits(want) {
			t.Fatalf("%s: memo scan %+v, memo-free %+v", at, got, want)
		}
		if !slices.Equal(gotCounts, wantCounts) {
			t.Fatalf("%s: memo scan counted blocks %v, memo-free %v", at, gotCounts, wantCounts)
		}
	}
}

// FuzzCompressInt64 differentials the int compare+compress kernel (AVX2
// VPCMPGTQ + LUT-driven PSHUFB compaction on amd64) against the scalar
// branch-free reference over fuzzer-chosen values, predicate bounds, and
// slice lengths — ragged tails included, since the fuzzer controls n.
func FuzzCompressInt64(f *testing.F) {
	for _, v := range fuzzEdgeInts {
		f.Add(v, int64(-50), int64(50), false, uint8(7))
		f.Add(v, int64(math.MinInt64), int64(math.MaxInt64), true, uint8(16))
		f.Add(v, int64(1), int64(-1), false, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed, lo, hi int64, neg bool, nByte uint8) {
		n := int(nByte) // 0..255 spans sub-vector through multi-block
		p := intPred{lo: lo, hi: hi}
		if neg {
			p.neg = 1
		}
		// Deterministic value stream from the seed: a Weyl sequence mixed
		// with the edge set so every run hits lowering boundaries.
		v := make([]int64, n)
		x := uint64(seed)
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			if x%4 == 0 {
				v[i] = fuzzEdgeInts[(x>>32)%uint64(len(fuzzEdgeInts))]
			} else {
				v[i] = int64(x)
			}
		}
		base := int(x % 1000)
		gbuf := make([]int32, n)
		wbuf := make([]int32, n)
		gj := simdCompressInt64(v, p, base, gbuf)
		wj := 0
		for i, val := range v {
			if wj < len(wbuf) {
				wbuf[wj] = int32(base + i)
			}
			wj += p.test(val)
		}
		if gj != wj {
			t.Fatalf("pred %+v n=%d: kernel wrote %d positions, scalar %d", p, n, gj, wj)
		}
		for i := 0; i < gj; i++ {
			if gbuf[i] != wbuf[i] {
				t.Fatalf("pred %+v n=%d: buf[%d] kernel %d, scalar %d", p, n, i, gbuf[i], wbuf[i])
			}
		}
	})
}

// FuzzCompressFloat64 differentials the float compare+compress kernel
// against passFloat for arbitrary operands (NaN and infinities reachable
// through bBits) and all eight wants masks.
func FuzzCompressFloat64(f *testing.F) {
	for _, bb := range fuzzEdgeBits {
		f.Add(int64(1), bb, uint8(1), uint8(32))
		f.Add(int64(2), bb, uint8(5), uint8(9))
		f.Add(int64(3), bb, uint8(7), uint8(255))
	}
	f.Fuzz(func(t *testing.T, seed int64, bBits uint64, wantsByte, nByte uint8) {
		n := int(nByte)
		b := math.Float64frombits(bBits)
		wLt, wGt, wEq := int(wantsByte)&1, int(wantsByte)>>1&1, int(wantsByte)>>2&1
		v := make([]float64, n)
		x := uint64(seed)
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			if x%4 == 0 {
				v[i] = math.Float64frombits(fuzzEdgeBits[(x>>32)%uint64(len(fuzzEdgeBits))])
			} else {
				// Reinterpreted bits cover NaN payloads, subnormals, and
				// both infinities without any float arithmetic in the
				// generator.
				v[i] = math.Float64frombits(x)
			}
		}
		base := int(x % 1000)
		gbuf := make([]int32, n)
		wbuf := make([]int32, n)
		gj := simdCompressFloat64(v, b, wLt, wGt, wEq, base, gbuf)
		wj := 0
		for i, val := range v {
			if wj < len(wbuf) {
				wbuf[wj] = int32(base + i)
			}
			wj += passFloat(val, b, wLt, wGt, wEq)
		}
		if gj != wj {
			t.Fatalf("b=%v wants=%03b n=%d: kernel wrote %d positions, scalar %d", b, wantsByte&7, n, gj, wj)
		}
		for i := 0; i < gj; i++ {
			if gbuf[i] != wbuf[i] {
				t.Fatalf("b=%v wants=%03b n=%d: buf[%d] kernel %d, scalar %d", b, wantsByte&7, n, i, gbuf[i], wbuf[i])
			}
		}
	})
}

// FuzzFusedFloatSum holds the float SUM window kernel (masked error-free
// extraction on AVX2) to its scalar twin — compaction, then an ExactSum
// Add per qualifier — over fuzzer-chosen operators, operands (NaN and
// infinities reachable through bBits), window lengths (ragged tails
// included), carried bounds and value mixes: a bulk binade, values
// 2^-60 below it that leave extraction residuals, -0, subnormals and
// non-finite qualifiers. A window the kernel hands back must add exactly
// what the twin adds; one it refuses must leave the accumulator as it
// was. On hosts without AVX2 every window is refused and the target
// checks only that.
func FuzzFusedFloatSum(f *testing.F) {
	for op := uint8(0); op < 6; op++ {
		for i, bb := range fuzzEdgeBits {
			f.Add(int64(i), bb, op, uint16(16+i*73), int16(0), uint8(0))
		}
		f.Add(int64(op), math.Float64bits(500), op, uint16(1024), int16(10), uint8(0))  // scan_direct's shape
		f.Add(int64(op), math.Float64bits(500), op, uint16(1000), int16(-5), uint8(1))  // bound too tight: one retry
		f.Add(int64(op), math.Float64bits(500), op, uint16(1000), int16(300), uint8(2)) // bound too loose, tiny values
		f.Add(int64(op), math.Float64bits(1e300), op, uint16(999), int16(0), uint8(3))  // specials and extremes
		f.Add(int64(op), math.Float64bits(-1), op, uint16(777), int16(1010), uint8(4))  // σ near overflow
	}
	f.Fuzz(func(t *testing.T, seed int64, bBits uint64, opByte uint8, nRaw uint16, expRaw int16, mix uint8) {
		op := RangeOp(opByte % 6)
		n := int(nRaw % (fusedBufLen + 1))
		x := uint64(seed)
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		scale := math.Ldexp(1, int(next()>>32%40)-10)
		if mix%5 == 4 {
			scale = math.Ldexp(1, 1000+int(next()>>32%24))
		}
		v := make([]float64, n)
		for i := range v {
			r := next()
			u := float64(r>>11) / (1 << 53)
			switch r % 16 {
			case 0:
				v[i] = math.Float64frombits(fuzzEdgeBits[(r>>32)%uint64(len(fuzzEdgeBits))])
			case 1:
				v[i] = math.Copysign(0, -1)
			case 2:
				if mix%5 != 0 { // values 2^-60 below the bulk: residuals
					v[i] = u * scale * math.Ldexp(1, -60)
				}
			case 3:
				if mix%5 == 3 {
					v[i] = math.Float64frombits(r) // anything, subnormals and NaN payloads included
				}
			default:
				v[i] = (u - 0.5) * scale
			}
		}
		operand := math.Float64frombits(bBits)
		c := NewFloatColumn("f", v)
		pp := c.preparePred(op, FloatValue(operand))

		var want ExactSum
		wantN := 0
		for _, val := range v {
			if passFloat(val, operand, pp.wLt, pp.wGt, pp.wEq) == 1 {
				want.Add(val)
				wantN++
			}
		}
		var before ExactSum
		before.Add(1.5)
		got := before
		exp := min(max(int(expRaw), minSumExp), maxSumExp) // a scan's bounds all come from sumExpFor
		gotN, ok := simdSumWindow(v, &pp, &got, &exp)
		if !ok {
			if got != before {
				t.Fatalf("op=%d b=%v n=%d: a refused window changed the accumulator", op, operand, n)
			}
			return
		}
		want.Add(1.5)
		if gotN != wantN || math.Float64bits(got.Round()) != math.Float64bits(want.Round()) {
			t.Fatalf("op=%d b=%v n=%d: kernel %v over %d rows, scalar twin %v over %d", op, operand, n, got.Round(), gotN, want.Round(), wantN)
		}
		// The scan that dispatches to it lands on the same bits.
		fa, _ := rangeScan(c, 0, n, 0, op, FloatValue(operand), FusedSum, nil)
		if fa.N != wantN || math.Float64bits(fa.Sum) != math.Float64bits(composeAgg(c, c.FilterRange(0, n, op, FloatValue(operand), nil)).Sum) {
			t.Fatalf("op=%d b=%v n=%d: scan %v over %d rows, want %d rows", op, operand, n, fa.Sum, fa.N, wantN)
		}
	})
}
