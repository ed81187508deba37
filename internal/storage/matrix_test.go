package storage

import (
	"testing"
	"testing/quick"
)

func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	m, err := NewMatrix("t",
		NewIntColumn("id", []int64{0, 1, 2, 3}),
		NewFloatColumn("v", []float64{0.5, 1.5, 2.5, 3.5}),
		NewStringColumn("tag", []string{"a", "b", "a", "c"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix("empty"); err == nil {
		t.Fatal("matrix with no columns should error")
	}
	_, err := NewMatrix("ragged",
		NewIntColumn("a", []int64{1, 2}),
		NewIntColumn("b", []int64{1}),
	)
	if err == nil {
		t.Fatal("ragged columns should error")
	}
}

func TestMatrixAt(t *testing.T) {
	m := testMatrix(t)
	v, err := m.At(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.S != "b" {
		t.Fatalf("At(1,2) = %v, want b", v)
	}
	if _, err := m.At(99, 0); err == nil {
		t.Fatal("out-of-range row should error")
	}
	if _, err := m.At(0, 99); err == nil {
		t.Fatal("out-of-range col should error")
	}
}

func TestMatrixRow(t *testing.T) {
	m := testMatrix(t)
	row, err := m.Row(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 || row[0].I != 2 || row[1].F != 2.5 || row[2].S != "a" {
		t.Fatalf("Row(2) = %v", row)
	}
}

func TestMatrixColumnIndex(t *testing.T) {
	m := testMatrix(t)
	if got := m.ColumnIndex("v"); got != 1 {
		t.Fatalf("ColumnIndex(v) = %d", got)
	}
	if got := m.ColumnIndex("nope"); got != -1 {
		t.Fatalf("ColumnIndex(nope) = %d, want -1", got)
	}
}

func TestRowMajorAppendAndAt(t *testing.T) {
	m := NewRowMajorMatrix("r", []ColumnMeta{
		{Name: "i", Type: Int64}, {Name: "s", Type: String}, {Name: "b", Type: Bool},
	})
	rows := [][]Value{
		{IntValue(10), StringValue("x"), BoolValue(true)},
		{IntValue(-5), StringValue("y"), BoolValue(false)},
		{IntValue(7), StringValue("x"), BoolValue(true)},
	}
	for _, r := range rows {
		if err := m.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumRows() != 3 {
		t.Fatalf("NumRows = %d", m.NumRows())
	}
	for r, want := range rows {
		for c, w := range want {
			got, err := m.At(r, c)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(w) {
				t.Errorf("At(%d,%d) = %v, want %v", r, c, got, w)
			}
		}
	}
	if err := m.AppendRow([]Value{IntValue(1)}); err == nil {
		t.Fatal("short row should error")
	}
}

func TestColumnAccessOnRowMajorErrors(t *testing.T) {
	m := NewRowMajorMatrix("r", []ColumnMeta{{Name: "i", Type: Int64}})
	_ = m.AppendRow([]Value{IntValue(1)})
	if _, err := m.Column(0); err == nil {
		t.Fatal("Column on row-major should error (gather instead)")
	}
	g, err := m.GatherColumn(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Int(0) != 1 {
		t.Fatal("GatherColumn wrong value")
	}
}

// Property: converting to the other layout and back preserves every cell.
func TestLayoutRoundTripProperty(t *testing.T) {
	f := func(ints []int64, seed uint8) bool {
		if len(ints) == 0 {
			ints = []int64{int64(seed)}
		}
		floats := make([]float64, len(ints))
		strs := make([]string, len(ints))
		for i, v := range ints {
			floats[i] = float64(v) / 3
			strs[i] = string(rune('a' + (byte(v)+seed)%5))
		}
		m, err := NewMatrix("t",
			NewIntColumn("i", ints),
			NewFloatColumn("f", floats),
			NewStringColumn("s", strs),
		)
		if err != nil {
			return false
		}
		rm, err := m.ToLayout(RowMajor)
		if err != nil {
			return false
		}
		back, err := rm.ToLayout(ColumnMajor)
		if err != nil {
			return false
		}
		for r := 0; r < m.NumRows(); r++ {
			for c := 0; c < m.NumCols(); c++ {
				a, err1 := m.At(r, c)
				b, err2 := back.At(r, c)
				if err1 != nil || err2 != nil || !a.Equal(b) {
					return false
				}
			}
		}
		return back.Layout() == ColumnMajor && rm.Layout() == RowMajor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvertRangeChunked(t *testing.T) {
	m := testMatrix(t)
	dst := NewRowMajorMatrix(m.Name(), m.Schema())
	if err := m.ConvertRange(dst, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.ConvertRange(dst, 2, 4); err != nil {
		t.Fatal(err)
	}
	if dst.NumRows() != 4 {
		t.Fatalf("chunked conversion rows = %d", dst.NumRows())
	}
	v, err := dst.At(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.S != "c" {
		t.Fatalf("converted cell = %v, want c", v)
	}
	if err := m.ConvertRange(dst, 3, 2); err == nil {
		t.Fatal("inverted range should error")
	}
}

func TestProject(t *testing.T) {
	m := testMatrix(t)
	p, err := m.Project(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.NumRows() != 4 {
		t.Fatalf("Project dims = %dx%d", p.NumRows(), p.NumCols())
	}
	v, _ := p.At(2, 0)
	if v.F != 2.5 {
		t.Fatalf("projected value = %v", v)
	}
	// Projection is a copy: mutating it must not touch the original.
	col, _ := p.Column(0)
	col.Set(0, FloatValue(99))
	orig, _ := m.At(0, 1)
	if orig.F != 0.5 {
		t.Fatal("Project should deep-copy")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	m := testMatrix(t)
	c.Register(m)
	got, err := c.Get("t")
	if err != nil || got != m {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("missing matrix should error")
	}
	if names := c.List(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("List = %v", names)
	}
}
