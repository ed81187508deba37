package storage

import (
	"fmt"
	"math"
	"testing"
)

// Block memo tests: where a run of kept blocks starts and stops, and the
// lowered predicate the memo keeps with its key. Every scan is held to
// the memo-free scan of the same span bit for bit, per-block counts
// included (checkMemoSpans).

// memoBlock is the block length of the run-boundary columns: 10 complete
// blocks and a ragged tail of 5 rows.
const (
	memoBlock = 16
	memoRows  = 10*memoBlock + 5
)

// TestFusedMemoRunBoundaries runs every mode over spans that start,
// break and end kept runs in each way a served slide can: refused blocks
// (a NaN qualifies into a float SUM) and unread blocks inside a span,
// spans that end inside a run or exactly at a block border, runs that
// reach the column's last complete block, and MIN/MAX ties across blocks
// — ±0 on float columns, where only the earlier block's zero is right.
func TestFusedMemoRunBoundaries(t *testing.T) {
	withNaN := make([]float64, memoRows)
	for i := range withNaN {
		withNaN[i] = float64(i%7) * 0.25
	}
	withNaN[3*memoBlock+2] = math.NaN()
	withNaN[7*memoBlock+5] = math.NaN()

	ints := make([]int64, memoRows)
	for i := range ints {
		ints[i] = int64(i*37%23) - 11
	}

	// zeros(neg0, sign): every block holds one zero among values of the
	// given sign, +0 in even blocks and -0 in odd ones (the other way
	// round when neg0), so every block's extremum ties the others'.
	zeros := func(neg0 bool, sign float64) *Column {
		v := make([]float64, memoRows)
		for i := range v {
			v[i] = sign * float64(1+i%5)
			if i%memoBlock == 3 {
				v[i] = 0
				if (i/memoBlock%2 == 1) != neg0 {
					v[i] = math.Copysign(0, -1)
				}
			}
		}
		return NewFloatColumn("z", v)
	}
	// Equal integer maxima and minima in every block.
	intTies := make([]int64, memoRows)
	for i := range intTies {
		intTies[i] = int64(i % 4)
	}

	fill := memoSpan{0, memoRows, Value{}}
	cases := []struct {
		name    string
		col     *Column
		op      RangeOp
		operand Value
		spans   []memoSpan
	}{
		{"refused blocks break runs", NewFloatColumn("f", withNaN), RangeGe, FloatValue(0), []memoSpan{
			fill, fill, {5, memoRows - 7, Value{}}, {2 * memoBlock, 9 * memoBlock, Value{}},
		}},
		{"unread blocks break runs", NewIntColumn("i", ints), RangeLt, IntValue(4), []memoSpan{
			{2 * memoBlock, 4 * memoBlock, Value{}}, {6 * memoBlock, 8 * memoBlock, Value{}},
			fill, fill,
		}},
		{"spans end inside a run", NewIntColumn("i", ints), RangeGe, IntValue(-3), []memoSpan{
			fill, {3, 5*memoBlock + 7, Value{}}, {memoBlock, 6 * memoBlock, Value{}}, {memoBlock + 1, memoBlock + 2, Value{}},
		}},
		{"runs reach the last complete block", NewFloatColumn("f", withNaN), RangeLe, FloatValue(1), []memoSpan{
			fill, {40, 10 * memoBlock, Value{}}, {40, memoRows, Value{}}, {9 * memoBlock, 10 * memoBlock, Value{}},
		}},
		{"+0 then -0 ties, non-positive", zeros(false, -1), RangeLe, FloatValue(0), []memoSpan{fill, fill, {memoBlock, memoRows, Value{}}}},
		{"-0 then +0 ties, non-positive", zeros(true, -1), RangeLe, FloatValue(0), []memoSpan{fill, fill, {memoBlock, memoRows, Value{}}}},
		{"+0 then -0 ties, non-negative", zeros(false, 1), RangeGe, FloatValue(0), []memoSpan{fill, fill, {memoBlock, memoRows, Value{}}}},
		{"-0 then +0 ties, non-negative", zeros(true, 1), RangeGe, FloatValue(0), []memoSpan{fill, fill, {memoBlock, memoRows, Value{}}}},
		{"integer ties", NewIntColumn("i", intTies), RangeNe, IntValue(2), []memoSpan{fill, fill}},
	}
	for _, tc := range cases {
		spans := make([]memoSpan, len(tc.spans))
		for i, s := range tc.spans {
			s.operand = tc.operand
			spans[i] = s
		}
		for _, mode := range fusedModes {
			checkMemoSpans(t, tc.name, tc.col, memoBlock, tc.op, mode, spans)
		}
	}
}

// TestFusedMemoOperandChange holds one memo correct while the conjunct's
// operand moves back and forth on int, float and string columns: each
// change lowers the predicate again, and the ragged head and tail chunks
// are read with the new lowering.
func TestFusedMemoOperandChange(t *testing.T) {
	ints := make([]int64, memoRows)
	flts := make([]float64, memoRows)
	strs := make([]string, memoRows)
	for i := range ints {
		ints[i] = int64(i * 7 % 50)
		flts[i] = float64(i*7%50) / 4
		strs[i] = fmt.Sprintf("w%02d", i*7%50)
	}
	for _, tc := range []struct {
		col  *Column
		a, b Value
	}{
		{NewIntColumn("i", ints), IntValue(10), IntValue(40)},
		{NewFloatColumn("f", flts), FloatValue(2.5), FloatValue(10)},
		{NewStringColumn("s", strs), StringValue("w10"), StringValue("w40")},
	} {
		spans := []memoSpan{{3, memoRows - 3, tc.a}, {3, memoRows - 3, tc.b}, {5, memoRows, tc.a}, {0, memoRows - 9, tc.b}}
		for _, mode := range fusedModes {
			checkMemoSpans(t, fmt.Sprintf("operand change on %v", tc.col.Type()), tc.col, memoBlock, RangeLt, mode, spans)
		}
	}
}

// TestFusedMemoLiveDictionary steps one memo over a live string column
// whose dictionary gains words between steps, past the 256 codes the
// count kernel's bitmap holds: over the snapshot pinned before the first
// append — same column, same rows, a growing dictionary — and over each
// new snapshot. Every step answers as the memo-free scan does, and the
// memo's lowering covers the dictionary as it stands.
func TestFusedMemoLiveDictionary(t *testing.T) {
	keys := make([]string, 40*memoBlock+3)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i*37%200)
	}
	tbl, err := NewTable("events", NewStringColumn("key", keys))
	if err != nil {
		t.Fatal(err)
	}
	column := func() *Column {
		c, err := tbl.Snapshot().Matrix.Column(0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pinned := column()
	for _, op := range []RangeOp{RangeLt, RangeEq, RangeGe} {
		operand := StringValue("n030")
		var memo FusedMemo
		step := func(c *Column, label string) {
			t.Helper()
			want, wantCounts := rangeScan(c, 5, c.Len()-2, memoBlock, op, operand, FusedCount, nil)
			got, gotCounts := rangeScan(c, 5, c.Len()-2, memoBlock, op, operand, FusedCount, &memo)
			if got.N != want.N || fmt.Sprint(gotCounts) != fmt.Sprint(wantCounts) {
				t.Fatalf("op=%d %s: memo step counted %d %v, memo-free %d %v", op, label, got.N, gotCounts, want.N, wantCounts)
			}
			if n := c.Dict().Len(); len(memo.pp.pass) < n {
				t.Fatalf("op=%d %s: the memo's pass table covers %d codes of %d", op, label, len(memo.pp.pass), n)
			}
		}
		step(pinned, "pinned, first step")
		for j := 0; j < 5; j++ {
			rows := make([][]Value, 61)
			for i := range rows {
				rows[i] = []Value{StringValue(fmt.Sprintf("n%03d", j*24+i%24))}
			}
			if _, err := tbl.AppendBatch(rows); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("batch %d (%d codes)", j, pinned.Dict().Len())
			step(pinned, "pinned after "+label)
			step(column(), "newest after "+label)
			step(pinned, "pinned again after "+label)
		}
		if n := pinned.Dict().Len(); n <= maskCodes {
			t.Fatalf("the dictionary grew to %d codes, never past %d", n, maskCodes)
		}
	}
}

// cutBlock is the block length of the cut-block columns, and cutLen the
// 8-row stretch the columns repeat their patterns in. cutRows is 6
// complete blocks and a ragged tail.
const (
	cutBlock = 64
	cutLen   = 8
	cutRows  = 6*cutBlock + 5
)

// TestFusedMemoCutBlocks runs every mode over spans whose ends cut
// blocks, through one memo, so that later spans read their ends around
// the complete blocks earlier ones kept: ends on an 8-row boundary and
// between two, a span inside one block and one inside 8 rows, cut points
// that move a few rows, and a whole-column span that keeps the blocks
// earlier spans only cut. The columns put refused float blocks in the
// way — a NaN qualifier, and tieFloats' 2^80, 1 and 2^-80 side by side,
// whose block -2^80 brings back to a sum two doubles hold — and ±0
// MIN/MAX ties within and across blocks, where only the earliest zero a
// span covers is right.
func TestFusedMemoCutBlocks(t *testing.T) {
	ints := make([]int64, cutRows)
	for i := range ints {
		ints[i] = int64(i*37%23) - 11
	}
	refused := make([]float64, cutRows)
	for i := range refused {
		refused[i] = float64(i%7) * 0.25
	}
	refused[cutBlock+2*cutLen+3] = math.NaN()
	refused[3*cutBlock+5*cutLen] = math.NaN()
	refused[4*cutBlock+cutLen] = 0x1p80
	refused[4*cutBlock+cutLen+1] = 1
	refused[4*cutBlock+cutLen+2] = 0x1p-80
	refused[4*cutBlock+3*cutLen+4] = -0x1p80
	// zeros(neg0, sign): every cutLen rows hold one zero among values of
	// the given sign, +0 in even stretches and -0 in odd ones (the other
	// way round when neg0), so every stretch's extremum ties the others'.
	zeros := func(neg0 bool, sign float64) *Column {
		v := make([]float64, cutRows)
		for i := range v {
			v[i] = sign * float64(1+i%5)
			if i%cutLen == 3 {
				v[i] = 0
				if (i/cutLen%2 == 1) != neg0 {
					v[i] = math.Copysign(0, -1)
				}
			}
		}
		return NewFloatColumn("z", v)
	}

	const B, S = cutBlock, cutLen
	spans := []memoSpan{
		{3, 2*B + 5*S, Value{}},        // a head between 8-row boundaries, a tail on one
		{3, 2*B + 5*S, Value{}},        // again: block 1 from the memo
		{2*B + 5*S, 4*B + 13, Value{}}, // the rest of block 2, a tail between boundaries
		{2*B + 5*S - 3, 4*B + 16, Value{}},
		{B + 3, B + 50, Value{}},            // inside one block
		{B + 2*S + 1, B + 2*S + 6, Value{}}, // inside 8 rows
		{B + 2*S, B + 3*S, Value{}},         // 8 aligned rows
		{B + 3, B + 50, Value{}},
		{B + 5, B + 47, Value{}}, // cut points moved a few rows
		{0, cutRows, Value{}},    // every cut block covered whole
		{5, cutRows - 7, Value{}},
		{3*B + 1, 3*B + 2*S - 1, Value{}},
		{3*B + 1, 3*B + 2*S - 1, Value{}},
	}
	cases := []struct {
		name    string
		col     *Column
		op      RangeOp
		operand Value
	}{
		{"int", NewIntColumn("i", ints), RangeGe, IntValue(-3)},
		{"refused float blocks", NewFloatColumn("f", refused), RangeGe, FloatValue(0)},
		{"+0 then -0 ties, non-positive", zeros(false, -1), RangeLe, FloatValue(0)},
		{"-0 then +0 ties, non-positive", zeros(true, -1), RangeLe, FloatValue(0)},
		{"+0 then -0 ties, non-negative", zeros(false, 1), RangeGe, FloatValue(0)},
		{"-0 then +0 ties, non-negative", zeros(true, 1), RangeGe, FloatValue(0)},
	}
	for _, tc := range cases {
		for i := range spans {
			spans[i].operand = tc.operand
		}
		for _, mode := range fusedModes {
			checkMemoSpans(t, tc.name, tc.col, cutBlock, tc.op, mode, spans)
		}
	}
	for _, mode := range fusedModes {
		checkMemoSpans(t, "tieFloats", tieColumn(cutRows), cutBlock, RangeNe, mode, []memoSpan{
			{3, cutRows - 3, FloatValue(1)}, {3, cutRows - 3, FloatValue(1)}, {0, cutRows, FloatValue(1)},
		})
	}
}

// tieColumn is n values drawn from tieFloats, every cutLen rows holding
// 2^80, 1 and 2^-80 among the zeros and NaN.
func tieColumn(n int) *Column {
	v := make([]float64, n)
	for i := range v {
		v[i] = tieFloats[(i*5+i/cutLen)%len(tieFloats)]
	}
	return NewFloatColumn("t", v)
}
