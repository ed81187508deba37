package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestColumnTypesRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		col  *Column
		want []Value
	}{
		{
			"ints",
			NewIntColumn("i", []int64{1, -2, 3}),
			[]Value{IntValue(1), IntValue(-2), IntValue(3)},
		},
		{
			"floats",
			NewFloatColumn("f", []float64{1.5, -2.25}),
			[]Value{FloatValue(1.5), FloatValue(-2.25)},
		},
		{
			"bools",
			NewBoolColumn("b", []bool{true, false, true}),
			[]Value{BoolValue(true), BoolValue(false), BoolValue(true)},
		},
		{
			"strings",
			NewStringColumn("s", []string{"x", "y", "x"}),
			[]Value{StringValue("x"), StringValue("y"), StringValue("x")},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.col.Len() != len(tc.want) {
				t.Fatalf("Len() = %d, want %d", tc.col.Len(), len(tc.want))
			}
			for i, want := range tc.want {
				if got := tc.col.Value(i); !got.Equal(want) {
					t.Errorf("Value(%d) = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestColumnAppendAndSet(t *testing.T) {
	c := NewEmptyColumn("v", Int64)
	c.Append(IntValue(10))
	c.Append(FloatValue(2.9)) // coerces to int
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
	if got := c.Int(1); got != 2 {
		t.Fatalf("coerced append = %d, want 2", got)
	}
	c.Set(0, IntValue(7))
	if got := c.Int(0); got != 7 {
		t.Fatalf("Set/Int = %d, want 7", got)
	}
}

func TestColumnFloatCoercion(t *testing.T) {
	b := NewBoolColumn("b", []bool{true, false})
	if b.Float(0) != 1 || b.Float(1) != 0 {
		t.Fatalf("bool Float() = %v, %v; want 1, 0", b.Float(0), b.Float(1))
	}
	s := NewStringColumn("s", []string{"a", "b", "a"})
	if s.Float(2) != s.Float(0) {
		t.Fatal("equal strings should share dictionary codes")
	}
}

func TestColumnSlice(t *testing.T) {
	c := NewIntColumn("v", []int64{0, 1, 2, 3, 4})
	s, err := c.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Int(0) != 1 || s.Int(2) != 3 {
		t.Fatalf("Slice contents wrong: len=%d first=%d last=%d", s.Len(), s.Int(0), s.Int(2))
	}
	if _, err := c.Slice(3, 2); err == nil {
		t.Fatal("inverted slice bounds should error")
	}
	if _, err := c.Slice(0, 99); err == nil {
		t.Fatal("out-of-range slice should error")
	}
}

func TestColumnStrided(t *testing.T) {
	c := NewIntColumn("v", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := c.Strided(0, 3)
	want := []int64{0, 3, 6, 9}
	if s.Len() != len(want) {
		t.Fatalf("Strided len = %d, want %d", s.Len(), len(want))
	}
	for i, w := range want {
		if s.Int(i) != w {
			t.Errorf("Strided[%d] = %d, want %d", i, s.Int(i), w)
		}
	}
	if c.Strided(0, 0).Len() != 0 {
		t.Fatal("zero stride should produce empty column")
	}
}

// Property: for any offset/stride, Strided picks exactly the values at
// offset + k*stride.
func TestStridedProperty(t *testing.T) {
	f := func(vals []int64, offsetRaw, strideRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		offset := int(offsetRaw) % len(vals)
		stride := int(strideRaw)%7 + 1
		c := NewIntColumn("v", vals)
		s := c.Strided(offset, stride)
		j := 0
		for i := offset; i < len(vals); i += stride {
			if s.Int(j) != vals[i] {
				return false
			}
			j++
		}
		return s.Len() == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnClone(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b"})
	cl := c.Clone()
	cl.Set(0, StringValue("z"))
	if c.Value(0).S != "a" {
		t.Fatal("Clone should not share storage with original")
	}
	if cl.Value(0).S != "z" {
		t.Fatal("Clone mutation lost")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{FloatValue(2.5), IntValue(2), 1},
		{StringValue("a"), StringValue("b"), -1},
		{StringValue("b"), StringValue("b"), 0},
		{BoolValue(true), BoolValue(false), 1},
		{StringValue("10"), IntValue(9), 1}, // numeric coercion
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); sign(got) != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestValueAsFloat(t *testing.T) {
	if IntValue(3).AsFloat() != 3 {
		t.Fatal("int AsFloat")
	}
	if BoolValue(true).AsFloat() != 1 {
		t.Fatal("bool AsFloat")
	}
	if StringValue("2.5").AsFloat() != 2.5 {
		t.Fatal("numeric string AsFloat")
	}
	if StringValue("xyz").AsFloat() != 0 {
		t.Fatal("non-numeric string AsFloat should be 0")
	}
	if math.IsNaN(FloatValue(math.NaN()).AsFloat()) != true {
		t.Fatal("NaN should survive")
	}
}

func TestValueAppendStringMatchesString(t *testing.T) {
	vals := []Value{
		IntValue(0), IntValue(-1), IntValue(99), IntValue(100), IntValue(math.MinInt64), IntValue(math.MaxInt64),
		FloatValue(0), FloatValue(math.Copysign(0, -1)), FloatValue(1.5), FloatValue(1e21), FloatValue(5e-324),
		FloatValue(math.NaN()), FloatValue(math.Inf(-1)),
		BoolValue(true), BoolValue(false), StringValue(""), StringValue("héllo <&>"), {},
	}
	for _, v := range vals {
		if got := string(v.AppendString([]byte("x"))); got != "x"+v.String() {
			t.Fatalf("AppendString(%#v) = %q, want %q", v, got, "x"+v.String())
		}
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct strings share a code")
	}
	if again := d.Intern("alpha"); again != a {
		t.Fatal("re-interning changed the code")
	}
	if got := d.Lookup(a); got != "alpha" {
		t.Fatalf("Lookup = %q", got)
	}
	if got := d.Lookup(999); got != "" {
		t.Fatalf("unknown code Lookup = %q, want empty", got)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	cl := d.Clone()
	cl.Intern("gamma")
	if d.Len() != 2 {
		t.Fatal("Clone should be independent")
	}
}
