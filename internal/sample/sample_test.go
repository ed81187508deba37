package sample

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

func buildHierarchy(t *testing.T, n, levels int) (*Hierarchy, *vclock.Clock) {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	clock := vclock.New()
	h, err := Build(storage.NewIntColumn("v", vals), levels, clock, iomodel.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, clock
}

func TestBuildLevels(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 3)
	if h.NumLevels() != 4 {
		t.Fatalf("levels = %d, want 4 (base + 3)", h.NumLevels())
	}
	for i := 0; i < h.NumLevels(); i++ {
		l, err := h.Level(i)
		if err != nil {
			t.Fatal(err)
		}
		if l.Stride != 1<<i {
			t.Fatalf("level %d stride = %d", i, l.Stride)
		}
		wantLen := 1024 >> i
		if l.Col.Len() != wantLen {
			t.Fatalf("level %d len = %d, want %d", i, l.Col.Len(), wantLen)
		}
	}
}

func TestBuildStopsAtMinLen(t *testing.T) {
	h, _ := buildHierarchy(t, 200, 20)
	// 200 → 100 → stop (next would be 50 < 64 after the check prev/2 < 64).
	if h.NumLevels() > 3 {
		t.Fatalf("levels = %d; hierarchy should stop shrinking near 64 entries", h.NumLevels())
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	clock := vclock.New()
	if _, err := Build(storage.NewIntColumn("v", nil), 3, clock, iomodel.DefaultParams(), nil); err == nil {
		t.Fatal("empty base should error")
	}
	if _, err := Build(nil, 3, clock, iomodel.DefaultParams(), nil); err == nil {
		t.Fatal("nil base should error")
	}
}

// Property: a sample value at any level equals the base value at the
// represented position (strided sampling, not aggregation).
func TestLevelValueConsistency(t *testing.T) {
	h, _ := buildHierarchy(t, 4096, 6)
	f := func(baseIDRaw uint16, levelRaw uint8) bool {
		level := int(levelRaw) % h.NumLevels()
		baseID := int(baseIDRaw) % 4096
		v, repID, err := h.ValueAt(baseID, level)
		if err != nil {
			return false
		}
		// The represented id must be the stride-aligned neighbor.
		l, _ := h.Level(level)
		if repID != (baseID/l.Stride)*l.Stride {
			return false
		}
		return v == float64(repID) // data is identity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScanAtTyped(t *testing.T) {
	h, _ := buildHierarchy(t, 256, 2)
	v, rep, err := h.ScanAt(130, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep != 130 || v.I != 130 {
		t.Fatalf("ScanAt = %v at %d", v, rep)
	}
	v, rep, err = h.ScanAt(131, 1) // stride 2: snaps to 130
	if err != nil {
		t.Fatal(err)
	}
	if rep != 130 || v.I != 130 {
		t.Fatalf("snapped ScanAt = %v at %d", v, rep)
	}
}

func TestSelectLevelSlowGestureUsesBase(t *testing.T) {
	h, _ := buildHierarchy(t, 1<<14, 10)
	// Tiny gap: expected inter-touch movement under one tuple.
	level := h.SelectLevel(1000, 0.001, time.Millisecond)
	if level != 0 {
		t.Fatalf("slow gesture level = %d, want 0", level)
	}
}

func TestSelectLevelFastGestureUsesCoarse(t *testing.T) {
	h, _ := buildHierarchy(t, 1<<20, 12)
	// 10cm object, 10cm/s, 60ms between touches: gap ≈ 1M*0.6/10 = 63k
	// tuples → level ≈ 15, clamped to max.
	level := h.SelectLevel(10, 10, 60*time.Millisecond)
	if level != h.NumLevels()-1 {
		t.Fatalf("fast gesture level = %d, want max %d", level, h.NumLevels()-1)
	}
}

func TestSelectLevelMonotoneInSpeed(t *testing.T) {
	h, _ := buildHierarchy(t, 1<<20, 12)
	prev := -1
	for _, speed := range []float64{0.01, 0.1, 1, 10, 100} {
		level := h.SelectLevel(10, speed, 60*time.Millisecond)
		if level < prev {
			t.Fatalf("level decreased with speed: %d after %d", level, prev)
		}
		prev = level
	}
}

func TestSelectLevelDegenerateInputs(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 4)
	if h.SelectLevel(0, 1, time.Millisecond) != 0 {
		t.Fatal("zero extent should select base")
	}
	if h.SelectLevel(10, 0, time.Millisecond) != 0 {
		t.Fatal("zero speed should select base")
	}
	if h.SelectLevel(10, 1, 0) != 0 {
		t.Fatal("zero inter-touch should select base")
	}
}

func TestSelectLevelForGap(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 4)
	cases := []struct {
		gap  float64
		want int
	}{
		{0, 0},
		{0.5, 0},
		{1, 0},
		{2, 1},
		{3, 1},
		{4, 2},
		{1 << 30, h.NumLevels() - 1}, // clamped to the coarsest level
		{math.NaN(), 0},
		{math.Inf(1), h.NumLevels() - 1},
	}
	for _, tc := range cases {
		if got := h.SelectLevelForGap(tc.gap); got != tc.want {
			t.Fatalf("SelectLevelForGap(%v) = %d, want %d", tc.gap, got, tc.want)
		}
	}
	// The geometric form must agree with the gap form on its own gap.
	rows := 1 << 20
	h2, _ := buildHierarchy(t, rows, 12)
	extent, speed, it := 10.0, 2.0, 60*time.Millisecond
	gap := float64(rows) * speed * it.Seconds() / extent
	if a, b := h2.SelectLevel(extent, speed, it), h2.SelectLevelForGap(gap); a != b {
		t.Fatalf("SelectLevel = %d, SelectLevelForGap = %d for the same gap", a, b)
	}
}

// spanEntries reads the entries of level covering base range [lo, hi) the
// way a summary window does: entries lo/stride up to the one holding
// hi-1, clamped to the level, charged as one span and summed exactly.
func spanEntries(h *Hierarchy, lo, hi, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	from, to := max0(lo)/l.Stride, (hi+l.Stride-1)/l.Stride
	if to > l.Col.Len() {
		to = l.Col.Len()
	}
	if from >= to {
		return 0, 0, 0, 0, nil
	}
	l.Tracker.AccessRange(from, to)
	var acc storage.ExactSum
	n = l.Col.SumRange(from, to, &acc)
	min, max, _ = l.Col.MinMaxRange(from, to)
	return acc.Round(), n, min, max, nil
}

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

func TestWindowAggChargesOnlyTouchedLevel(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 4)
	_, n, _, _, err := spanEntries(h, 0, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := h.Level(0)
	l3, _ := h.Level(3)
	if l0.Tracker.Stats().ValuesRead != 0 {
		t.Fatal("base level charged for a level-3 read")
	}
	if got := l3.Tracker.Stats().ValuesRead; got != int64(n) || n != 13 {
		t.Fatalf("level 3 charged %d values for a %d-entry read, want 13", got, n)
	}
	if h.TotalStats() != l3.Tracker.Stats() {
		t.Fatalf("total %+v, want level 3's %+v alone", h.TotalStats(), l3.Tracker.Stats())
	}
}

func TestSpanEntriesEmptyAndClamped(t *testing.T) {
	h, _ := buildHierarchy(t, 256, 1)
	sum, n, _, _, err := spanEntries(h, 40, 40, 0)
	if err != nil || n != 0 || sum != 0 {
		t.Fatalf("empty span = %v,%d,%v", sum, n, err)
	}
	if h.TotalStats().ValuesRead != 0 {
		t.Fatalf("empty span charged %+v", h.TotalStats())
	}
	if _, _, _, _, err := spanEntries(h, 0, 10, 99); err == nil {
		t.Fatal("bad level should error")
	}
	sum, n, min, max, err := spanEntries(h, 250, 9999, 0)
	if err != nil || n != 6 || min != 250 || max != 255 || sum != 250+251+252+253+254+255 {
		t.Fatalf("clamped span = %v,%d,%v,%v,%v", sum, n, min, max, err)
	}
	if got := h.TotalStats().ValuesRead; got != 6 {
		t.Fatalf("clamped span charged %d values, want 6", got)
	}
	// At level 1 (stride 2) base [-5, 9) clamps to entries 0..4 (base
	// tuples 0, 2, 4, 6, 8).
	sum, n, min, max, err = spanEntries(h, -5, 9, 1)
	if err != nil || n != 5 || min != 0 || max != 8 || sum != 0+2+4+6+8 {
		t.Fatalf("level-1 clamped span = %v,%d,%v,%v,%v", sum, n, min, max, err)
	}
}

func TestPromote(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 2)
	col, err := h.Promote(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 100 || col.Int(0) != 100 {
		t.Fatalf("promoted region = len %d first %d", col.Len(), col.Int(0))
	}
	if _, err := h.Promote(200, 100); err == nil {
		t.Fatal("inverted promote range should error")
	}
}

func TestTotalStatsAndCool(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 2)
	h.ValueAt(5, 0)
	h.ValueAt(5, 1)
	st := h.TotalStats()
	if st.ValuesRead != 2 {
		t.Fatalf("total values read = %d", st.ValuesRead)
	}
	h.Cool()
	l0, _ := h.Level(0)
	if l0.Tracker.WarmBlocks() != 0 {
		t.Fatal("Cool incomplete")
	}
}

func TestBaseLen(t *testing.T) {
	h, _ := buildHierarchy(t, 1000, 2)
	l1, _ := h.Level(1)
	if l1.BaseLen() != 1000 {
		t.Fatalf("BaseLen = %d", l1.BaseLen())
	}
}
