package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

func TestBuildAndRankAccess(t *testing.T) {
	col := storage.NewIntColumn("v", []int64{30, 10, 20, 40, 10})
	idx := New(col)
	if idx.Built() {
		t.Fatal("index should start unbuilt")
	}
	idx.Build(nil)
	wantOrder := []float64{10, 10, 20, 30, 40}
	for rank, want := range wantOrder {
		v, pos, err := idx.ValueAtRank(rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("rank %d = %v, want %v", rank, v, want)
		}
		if col.Float(pos) != want {
			t.Fatal("returned position inconsistent with value")
		}
	}
}

func TestRankErrors(t *testing.T) {
	col := storage.NewIntColumn("v", []int64{1})
	idx := New(col)
	if _, err := idx.PositionOfRank(0); err == nil {
		t.Fatal("unbuilt index should error")
	}
	idx.Build(nil)
	if _, err := idx.PositionOfRank(5); err == nil {
		t.Fatal("out-of-range rank should error")
	}
	if _, err := idx.RankOf(0, nil); err != nil {
		t.Fatal("built RankOf should work")
	}
}

// Property: the permutation is a true sort of the column.
func TestPermutationSortedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		idx := New(storage.NewIntColumn("v", vals))
		idx.Build(nil)
		prev := -1 << 62
		seen := make(map[int]bool)
		for r := 0; r < idx.Len(); r++ {
			v, pos, err := idx.ValueAtRank(r, nil)
			if err != nil || seen[pos] {
				return false
			}
			seen[pos] = true
			if int64(v) < int64(prev) {
				return false
			}
			prev = int(v)
		}
		return len(seen) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMatchesNaive(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 3, 8, 2}
	col := storage.NewIntColumn("v", vals)
	idx := New(col)
	idx.Build(nil)
	got, err := idx.Range(3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, v := range vals {
		if v >= 3 && v <= 7 {
			want = append(want, i)
		}
	}
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Empty and inverted ranges.
	if r, _ := idx.Range(100, 200, nil); len(r) != 0 {
		t.Fatal("out-of-domain range should be empty")
	}
	if r, _ := idx.Range(7, 3, nil); r != nil {
		t.Fatal("inverted range should be nil")
	}
}

// TestAddRankRangeMatchesValueAtRankLoop holds the rank-window kernel to
// a ValueAtRank loop that skips the ranks it refuses: the same values fed
// in the same order, the same count, and the same charges — tracker clock
// and stats — over windows clamped at either end, empty and inverted.
func TestAddRankRangeMatchesValueAtRankLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 4000)
	for i := range vals {
		vals[i] = float64(rng.Intn(500)) / 4 // duplicates: ties keep storage order
	}
	idx := New(storage.NewFloatColumn("v", vals))
	idx.Build(nil)
	mk := func() (*iomodel.Tracker, *vclock.Clock) {
		clock := vclock.New()
		params := iomodel.Params{BlockValues: 32, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 8}
		return iomodel.New(clock, params, nil), clock
	}
	refTr, refClock := mk()
	spanTr, spanClock := mk()
	windows := [][2]int{{-5, 20}, {3980, 4010}, {-10, 4010}, {700, 700}, {900, 850}, {0, 1}, {3999, 4000}, {4000, 4005}}
	for i := 0; i < 40; i++ {
		lo := rng.Intn(4000)
		windows = append(windows, [2]int{lo, lo + rng.Intn(120)})
	}
	for _, w := range windows {
		var want []float64
		for r := w[0]; r < w[1]; r++ {
			v, _, err := idx.ValueAtRank(r, refTr)
			if err != nil {
				continue
			}
			want = append(want, v)
		}
		var got []float64
		n := idx.AddRankRange(w[0], w[1], spanTr, func(v float64) { got = append(got, v) })
		if n != len(want) || len(got) != len(want) {
			t.Fatalf("window %v: count %d, fed %d values, want %d", w, n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("window %v: value %d is %v, want %v", w, i, got[i], want[i])
			}
		}
		if spanClock.Now() != refClock.Now() {
			t.Fatalf("window %v: clock %v, want %v", w, spanClock.Now(), refClock.Now())
		}
		if g, w2 := spanTr.Stats(), refTr.Stats(); g != w2 {
			t.Fatalf("window %v: tracker stats %+v, want %+v", w, g, w2)
		}
	}
}

func TestRankOfLowerBound(t *testing.T) {
	col := storage.NewIntColumn("v", []int64{10, 20, 30})
	idx := New(col)
	idx.Build(nil)
	cases := []struct {
		v    float64
		want int
	}{{5, 0}, {10, 0}, {15, 1}, {30, 2}, {31, 3}}
	for _, tc := range cases {
		got, err := idx.RankOf(tc.v, nil)
		if err != nil || got != tc.want {
			t.Errorf("RankOf(%v) = %d, %v; want %d", tc.v, got, err, tc.want)
		}
	}
}

func TestRegistryLazyBuild(t *testing.T) {
	r := NewRegistry()
	col := storage.NewIntColumn("v", []int64{3, 1, 2})
	idx1 := r.For(0, col, nil)
	if !idx1.Built() {
		t.Fatal("For should build")
	}
	if r.Builds() != 1 {
		t.Fatalf("builds = %d", r.Builds())
	}
	idx2 := r.For(0, col, nil)
	if idx2 != idx1 || r.Builds() != 1 {
		t.Fatal("second For should reuse the built index")
	}
	r.For(1, col, nil)
	if r.Builds() != 2 {
		t.Fatal("distinct level should build separately")
	}
}
