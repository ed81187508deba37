package layout

import (
	"testing"
	"testing/quick"
	"time"

	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

func buildRowMajor(t *testing.T, rows int) *storage.Matrix {
	t.Helper()
	m := storage.NewRowMajorMatrix("t", []storage.ColumnMeta{
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	})
	for r := 0; r < rows; r++ {
		err := m.AppendRow([]storage.Value{
			storage.IntValue(int64(r)),
			storage.FloatValue(float64(r) / 2),
			storage.StringValue(string(rune('a' + r%3))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestConversionRun(t *testing.T) {
	src := buildRowMajor(t, 100)
	clock := vclock.New()
	conv, err := NewConversion(src, clock, 32)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Result().Layout() != storage.ColumnMajor {
		t.Fatal("target layout should be the opposite of row-major")
	}
	if err := conv.Run(); err != nil {
		t.Fatal(err)
	}
	if !conv.Done() || conv.Progress() != 1 {
		t.Fatal("conversion incomplete after Run")
	}
	dst := conv.Result()
	for r := 0; r < 100; r++ {
		for c := 0; c < 3; c++ {
			a, _ := src.At(r, c)
			b, errB := dst.At(r, c)
			if errB != nil || !a.Equal(b) {
				t.Fatalf("cell (%d,%d): %v vs %v", r, c, a, b)
			}
		}
	}
	wantCost := time.Duration(100) * CostPerRow
	if clock.Now() != wantCost {
		t.Fatalf("clock = %v, want %v", clock.Now(), wantCost)
	}
}

func TestConversionColumnToRow(t *testing.T) {
	src, err := storage.NewMatrix("cm",
		storage.NewIntColumn("x", []int64{1, 2, 3}),
		storage.NewIntColumn("y", []int64{4, 5, 6}),
	)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConversion(src, vclock.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Result().Layout() != storage.RowMajor {
		t.Fatal("column-major source should convert to row-major")
	}
	if err := conv.Run(); err != nil {
		t.Fatal(err)
	}
	v, _ := conv.Result().At(2, 1)
	if v.I != 6 {
		t.Fatalf("converted cell = %v", v)
	}
}

func TestStepChunks(t *testing.T) {
	src := buildRowMajor(t, 100)
	conv, err := NewConversion(src, vclock.New(), 30)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := conv.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps != 4 { // 30+30+30+10
		t.Fatalf("steps = %d, want 4", steps)
	}
	// Further steps are no-ops.
	done, err := conv.Step()
	if err != nil || !done {
		t.Fatal("post-completion Step should report done")
	}
}

func TestRunFor(t *testing.T) {
	src := buildRowMajor(t, 10000)
	clock := vclock.New()
	conv, err := NewConversion(src, clock, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := 500 * time.Microsecond // 100-row chunks cost 20µs each
	used, err := conv.RunFor(budget)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Done() {
		t.Fatal("tiny budget should not complete a 10k-row conversion")
	}
	if used < budget/2 || used > 2*budget {
		t.Fatalf("used = %v, want ≈%v", used, budget)
	}
	if conv.Progress() <= 0 {
		t.Fatal("no progress made")
	}
}

func TestSampleFirstPreview(t *testing.T) {
	src := buildRowMajor(t, 1000)
	clock := vclock.New()
	conv, err := NewConversion(src, clock, 100)
	if err != nil {
		t.Fatal(err)
	}
	preview, err := conv.SampleFirst(100)
	if err != nil {
		t.Fatal(err)
	}
	if preview.NumRows() != 10 {
		t.Fatalf("preview rows = %d, want 10", preview.NumRows())
	}
	if preview.Layout() != storage.ColumnMajor {
		t.Fatal("preview must use the target layout")
	}
	// Preview row k is source row k*100.
	v, _ := preview.At(3, 0)
	if v.I != 300 {
		t.Fatalf("preview cell = %v, want 300", v)
	}
	// The full conversion still runs to completion independently.
	if err := conv.Run(); err != nil {
		t.Fatal(err)
	}
	if conv.Result().NumRows() != 1000 {
		t.Fatal("full conversion rows wrong")
	}
}

func TestSampleFirstValidation(t *testing.T) {
	conv, err := NewConversion(buildRowMajor(t, 10), vclock.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.SampleFirst(1); err == nil {
		t.Fatal("stride 1 should be rejected")
	}
}

func TestNewConversionNilSource(t *testing.T) {
	if _, err := NewConversion(nil, vclock.New(), 0); err == nil {
		t.Fatal("nil source should error")
	}
}

// Property: converting row-major → column-major preserves all cells for
// arbitrary int data.
func TestConversionPreservesDataProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		m := storage.NewRowMajorMatrix("p", []storage.ColumnMeta{
			{Name: "v", Type: storage.Int64},
			{Name: "w", Type: storage.Int64},
		})
		for _, v := range vals {
			if err := m.AppendRow([]storage.Value{storage.IntValue(v), storage.IntValue(-v)}); err != nil {
				return false
			}
		}
		conv, err := NewConversion(m, vclock.New(), 3)
		if err != nil {
			return false
		}
		if err := conv.Run(); err != nil {
			return false
		}
		dst := conv.Result()
		for r, v := range vals {
			a, err1 := dst.At(r, 0)
			b, err2 := dst.At(r, 1)
			if err1 != nil || err2 != nil || a.I != v || b.I != -v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
