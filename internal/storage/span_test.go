package storage

import (
	"math"
	"testing"
)

// sumRange is SumRange into a fresh accumulator, rounded.
func sumRange(c *Column, lo, hi int) (float64, int) {
	var acc ExactSum
	n := c.SumRange(lo, hi, &acc)
	return acc.Round(), n
}

func TestSumRangeMatchesScalar(t *testing.T) {
	c := NewIntColumn("v", []int64{3, 1, 4, 1, 5, 9, 2, 6})
	sum, n := sumRange(c, 2, 6)
	if sum != 4+1+5+9 || n != 4 {
		t.Fatalf("SumRange = %v, %d", sum, n)
	}
	// Clamping.
	sum, n = sumRange(c, -3, 100)
	if n != 8 || sum != 31 {
		t.Fatalf("clamped SumRange = %v, %d", sum, n)
	}
	if _, n := sumRange(c, 5, 2); n != 0 {
		t.Fatal("inverted range should be empty")
	}
}

func TestSumRangeAllTypes(t *testing.T) {
	fc := NewFloatColumn("f", []float64{0.5, 1.5, 2.5})
	if sum, n := sumRange(fc, 0, 3); sum != 4.5 || n != 3 {
		t.Fatalf("float SumRange = %v, %d", sum, n)
	}
	bc := NewBoolColumn("b", []bool{true, false, true, true})
	if sum, n := sumRange(bc, 0, 4); sum != 3 || n != 4 {
		t.Fatalf("bool SumRange = %v, %d", sum, n)
	}
	sc := NewStringColumn("s", []string{"a", "b", "a"})
	// String cells coerce to dictionary codes (matching Column.Float).
	if sum, n := sumRange(sc, 0, 3); sum != 0+1+0 || n != 3 {
		t.Fatalf("string SumRange = %v, %d", sum, n)
	}
}

func TestMinMaxRange(t *testing.T) {
	c := NewIntColumn("v", []int64{3, 1, 4, 1, 5, 9, 2, 6})
	min, max, n := c.MinMaxRange(1, 6)
	if min != 1 || max != 9 || n != 5 {
		t.Fatalf("MinMaxRange = %v, %v, %d", min, max, n)
	}
	min, max, n = c.MinMaxRange(4, 4)
	if !math.IsInf(min, 1) || !math.IsInf(max, -1) || n != 0 {
		t.Fatalf("empty MinMaxRange = %v, %v, %d", min, max, n)
	}
}

func TestCountRangeClamps(t *testing.T) {
	c := NewIntColumn("v", make([]int64, 10))
	if _, _, got := c.MinMaxRange(-5, 7); got != 7 {
		t.Fatalf("MinMaxRange count = %d", got)
	}
	if got := c.AddRangeTo(8, 100, func(float64) {}); got != 2 {
		t.Fatalf("AddRangeTo count = %d", got)
	}
}

func TestAddRangeToOrder(t *testing.T) {
	c := NewFloatColumn("v", []float64{1, 2, 3, 4})
	var got []float64
	n := c.AddRangeTo(1, 3, func(v float64) { got = append(got, v) })
	if n != 2 || len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("AddRangeTo = %v (n=%d)", got, n)
	}
}

func TestFilterRangeMatchesPredicateSemantics(t *testing.T) {
	c := NewIntColumn("v", []int64{5, 3, 8, 3, 1, 9})
	ops := []RangeOp{RangeEq, RangeNe, RangeLt, RangeLe, RangeGt, RangeGe}
	operand := IntValue(3)
	for _, op := range ops {
		sel := c.FilterRange(0, c.Len(), op, operand, nil)
		// Scalar reference via Value.Compare.
		var want []int32
		for i := 0; i < c.Len(); i++ {
			if op.applyCmp(c.Value(i).Compare(operand)) {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("op %d: sel = %v, want %v", op, sel, want)
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("op %d: sel = %v, want %v", op, sel, want)
			}
		}
	}
}

func TestFilterRangeStringLexicographic(t *testing.T) {
	c := NewStringColumn("s", []string{"pear", "apple", "fig", "apple", "quince"})
	sel := c.FilterRange(0, c.Len(), RangeLt, StringValue("grape"), nil)
	if len(sel) != 3 || sel[0] != 1 || sel[1] != 2 || sel[2] != 3 {
		t.Fatalf("string RangeLt sel = %v", sel)
	}
	// Equality against an interned value.
	sel = c.FilterRange(0, c.Len(), RangeEq, StringValue("apple"), nil)
	if len(sel) != 2 {
		t.Fatalf("string RangeEq sel = %v", sel)
	}
}

func TestFilterSelRefines(t *testing.T) {
	c := NewIntColumn("v", []int64{5, 3, 8, 3, 1, 9})
	first := c.FilterRange(0, c.Len(), RangeGt, IntValue(2), nil) // 5 3 8 3 9
	out := c.FilterSel(first, RangeLt, IntValue(6), nil)          // 5 3 3
	if len(out) != 3 || out[0] != 0 || out[1] != 1 || out[2] != 3 {
		t.Fatalf("FilterSel = %v", out)
	}
}

func TestFilterRangeMixedTypeCoercion(t *testing.T) {
	// Int column vs float operand compares numerically, as Value.Compare does.
	c := NewIntColumn("v", []int64{1, 2, 3})
	sel := c.FilterRange(0, 3, RangeGe, FloatValue(2.5), nil)
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("mixed coercion sel = %v", sel)
	}
}

func TestStridedTypedArms(t *testing.T) {
	bc := NewBoolColumn("b", []bool{true, false, true, false, true})
	sb := bc.Strided(0, 2)
	if sb.Len() != 3 || !sb.Value(0).B || !sb.Value(1).B || !sb.Value(2).B {
		t.Fatalf("bool Strided = %v", sb)
	}
	sc := NewStringColumn("s", []string{"a", "b", "c", "d"})
	ss := sc.Strided(1, 2)
	if ss.Len() != 2 || ss.Value(0).S != "b" || ss.Value(1).S != "d" {
		t.Fatalf("string Strided values wrong")
	}
}

func TestPassByCodeMemoExtendsWithDict(t *testing.T) {
	sc := NewStringColumn("s", []string{"a", "c", "a", "c"})
	sel := sc.FilterRange(0, sc.Len(), RangeLt, StringValue("b"), nil)
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("first filter sel = %v", sel)
	}
	// Interning a new code after the table was memoized must extend it.
	sc.Append(StringValue("aa"))
	sel = sc.FilterRange(0, sc.Len(), RangeLt, StringValue("b"), nil)
	if len(sel) != 3 || sel[2] != 4 {
		t.Fatalf("post-append filter sel = %v", sel)
	}
	// Memo hit: same outcome on repeat, distinct operand gets its own table.
	again := sc.FilterRange(0, sc.Len(), RangeLt, StringValue("b"), nil)
	if len(again) != 3 {
		t.Fatalf("memoized filter sel = %v", again)
	}
	ge := sc.FilterRange(0, sc.Len(), RangeGe, StringValue("b"), nil)
	if len(ge) != 2 || ge[0] != 1 || ge[1] != 3 {
		t.Fatalf("distinct-operand sel = %v", ge)
	}
}
