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

func TestWindowAgg(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 4)
	sum, n, min, max, err := h.WindowAgg(10, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || min != 10 || max != 19 || sum != 145 {
		t.Fatalf("window agg = sum %v n %d min %v max %v", sum, n, min, max)
	}
	// At level 2 (stride 4) the same window covers entries 8..20 step 4.
	sum, n, _, _, err = h.WindowAgg(10, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || sum != 8+12+16 {
		t.Fatalf("level-2 window = sum %v n %d", sum, n)
	}
}

func TestWindowAggChargesOnlyTouchedLevel(t *testing.T) {
	h, _ := buildHierarchy(t, 1024, 4)
	_, _, _, _, err := h.WindowAgg(0, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := h.Level(0)
	l3, _ := h.Level(3)
	if l0.Tracker.Stats().ValuesRead != 0 {
		t.Fatal("base level charged for a level-3 read")
	}
	if l3.Tracker.Stats().ValuesRead == 0 {
		t.Fatal("level 3 not charged")
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

func TestSpanAggMatchesWindowAgg(t *testing.T) {
	// The vectorized span read must match the scalar window loop in
	// values, stats, and virtual cost on integer data.
	mk := func() (*Hierarchy, *vclock.Clock) {
		vals := make([]int64, 5000)
		for i := range vals {
			vals[i] = int64((i*2654435761 + 17) % 1000)
		}
		clock := vclock.New()
		params := iomodel.Params{BlockValues: 64, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond}
		h, err := Build(storage.NewIntColumn("v", vals), 4, clock, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h, clock
	}
	scalarH, scalarClock := mk()
	spanH, spanClock := mk()
	ranges := [][2]int{{0, 5000}, {10, 11}, {100, 612}, {4990, 5600}, {-5, 40}, {70, 70}}
	for level := 0; level < scalarH.NumLevels(); level++ {
		for _, r := range ranges {
			sSum, sN, sMin, sMax, sErr := scalarH.WindowAgg(r[0], r[1], level)
			vSum, vN, vMin, vMax, vErr := spanH.SpanAgg(r[0], r[1], level)
			if (sErr == nil) != (vErr == nil) {
				t.Fatalf("level %d range %v: err %v vs %v", level, r, sErr, vErr)
			}
			if sSum != vSum || sN != vN || sMin != vMin || sMax != vMax {
				t.Fatalf("level %d range %v: scalar (%v,%d,%v,%v) span (%v,%d,%v,%v)",
					level, r, sSum, sN, sMin, sMax, vSum, vN, vMin, vMax)
			}
		}
	}
	if scalarClock.Now() != spanClock.Now() {
		t.Fatalf("virtual cost diverged: scalar %v span %v", scalarClock.Now(), spanClock.Now())
	}
	for level := 0; level < scalarH.NumLevels(); level++ {
		sl, _ := scalarH.Level(level)
		vl, _ := spanH.Level(level)
		if sl.Tracker.Stats() != vl.Tracker.Stats() {
			t.Fatalf("level %d stats diverged: %+v vs %+v", level, sl.Tracker.Stats(), vl.Tracker.Stats())
		}
	}
}

func TestSpanEntriesEmptyAndClamped(t *testing.T) {
	h, _ := buildHierarchy(t, 256, 1)
	sum, n, _, _, err := h.SpanEntries(40, 40, 0)
	if err != nil || n != 0 || sum != 0 {
		t.Fatalf("empty span = %v,%d,%v", sum, n, err)
	}
	if _, _, _, _, err := h.SpanEntries(0, 10, 99); err == nil {
		t.Fatal("bad level should error")
	}
	sum, n, min, max, err := h.SpanEntries(250, 9999, 0)
	if err != nil || n != 6 || min != 250 || max != 255 || sum != 250+251+252+253+254+255 {
		t.Fatalf("clamped span = %v,%d,%v,%v,%v", sum, n, min, max, err)
	}
}

func TestSpanEntriesExactIntSums(t *testing.T) {
	// Integer columns difference exact int64 prefix sums: span sums stay
	// exact even where float64 prefix accumulation would round (values
	// beyond 2^53).
	big := int64(1) << 60
	vals := []int64{big, 3, big, -7, big, 11, -big, 5}
	for len(vals) < 200 {
		vals = append(vals, int64(len(vals)))
	}
	clock := vclock.New()
	params := iomodel.Params{BlockValues: 4, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond}
	h, err := Build(storage.NewIntColumn("v", vals), 0, clock, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, n, _, _, err := h.SpanEntries(1, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3 + big - 7 + big + 11)
	if n != 5 || sum != want {
		t.Fatalf("SpanEntries sum = %v (n=%d), want exact %v", sum, n, want)
	}
	// A float column keeps the float prefix path.
	fvals := make([]float64, 200)
	for i := range fvals {
		fvals[i] = float64(i) + 0.5
	}
	fh, err := Build(storage.NewFloatColumn("f", fvals), 0, clock, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	fsum, fn, _, _, err := fh.SpanEntries(10, 14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fn != 4 || fsum != 10.5+11.5+12.5+13.5 {
		t.Fatalf("float SpanEntries = %v (n=%d)", fsum, fn)
	}
}

// TestSpanEntriesOneNonFiniteDoesNotPoison is the probe for the prefix
// bug: a 4 096-row column of 1.0 whose first entry is +Inf or NaN. A span
// that does not hold the special must read its plain sum — a
// left-to-right prefix over every value carries the special into every
// later span (NaN for both probes). Spans that do hold specials follow
// the IEEE rule, on static hierarchies and live chains alike.
func TestSpanEntriesOneNonFiniteDoesNotPoison(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, first := range []float64{inf, nan} {
		vals := make([]float64, 4096)
		for i := range vals {
			vals[i] = 1
		}
		vals[0] = first
		vals[2500] = math.Inf(-1) // an interior block of the wide spans
		col := storage.NewFloatColumn("v", vals)
		chain := NewVersioned(3, 1024)
		shared, err := chain.ForSnapshot(0, col)
		if err != nil {
			t.Fatal(err)
		}
		params := iomodel.Params{BlockValues: 1024, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond}
		static, err := Build(col, 3, vclock.New(), params, nil)
		if err != nil {
			t.Fatal(err)
		}
		live := shared.Attach(vclock.New(), params, nil)
		cases := []struct {
			from, to int
			want     float64
		}{
			{100, 200, 100},
			{1, 2500, 2499},
			{1, 4096, math.Inf(-1)},
			{2501, 4096, 1595},
			{0, 1, first},
			{0, 2000, first},
			{0, 4096, nan}, // with +Inf: both infinities
		}
		for name, h := range map[string]*Hierarchy{"static": static, "live": live} {
			for _, tc := range cases {
				sum, n, _, _, err := h.SpanEntries(tc.from, tc.to, 0)
				if err != nil || n != tc.to-tc.from || !sameBits(sum, tc.want) {
					t.Fatalf("first=%v %s SpanEntries[%d,%d) = %v over %d (%v), want %v", first, name, tc.from, tc.to, sum, n, err, tc.want)
				}
				if sum, _, _, _, err := h.SpanAgg(tc.from, tc.to, 0); err != nil || !sameBits(sum, tc.want) {
					t.Fatalf("first=%v %s SpanAgg[%d,%d) = %v, want %v", first, name, tc.from, tc.to, sum, tc.want)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
