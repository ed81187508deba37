package iomodel

import (
	"fmt"
	"testing"
	"time"

	"dbtouch/internal/vclock"
)

func testParams() Params {
	return Params{BlockValues: 10, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 3}
}

func TestColdThenWarm(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	first := tr.Access(5)
	if first != time.Millisecond+time.Microsecond {
		t.Fatalf("cold access cost = %v", first)
	}
	second := tr.Access(7) // same block (5/10 == 7/10)
	if second != time.Microsecond {
		t.Fatalf("warm access cost = %v", second)
	}
	if got := clock.Now(); got != first+second {
		t.Fatalf("clock = %v, want %v", got, first+second)
	}
	st := tr.Stats()
	if st.ColdFetches != 1 || st.WarmHits != 1 || st.ValuesRead != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessRange(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	cost := tr.AccessRange(0, 25) // blocks 0,1,2 cold + 25 warm reads
	want := 3*time.Millisecond + 25*time.Microsecond
	if cost != want {
		t.Fatalf("range cost = %v, want %v", cost, want)
	}
}

func TestEvictionBudget(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil) // budget 3 blocks
	for b := 0; b < 5; b++ {
		tr.Access(b * 10)
	}
	if tr.WarmBlocks() != 3 {
		t.Fatalf("warm blocks = %d, want 3 (budget)", tr.WarmBlocks())
	}
	if tr.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", tr.Stats().Evictions)
	}
	// LRU: blocks 0 and 1 evicted; 2,3,4 warm.
	if tr.IsWarm(0) || tr.IsWarm(10) {
		t.Fatal("oldest blocks should have been evicted")
	}
	if !tr.IsWarm(20) || !tr.IsWarm(30) || !tr.IsWarm(40) {
		t.Fatal("recent blocks should be warm")
	}
}

func TestPrefetchBlock(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	used := tr.PrefetchBlock(0, 10*time.Millisecond)
	if used != time.Millisecond {
		t.Fatalf("prefetch cost = %v", used)
	}
	if clock.Now() != 0 {
		t.Fatal("prefetch must not advance the clock (background work)")
	}
	if !tr.IsWarm(5) {
		t.Fatal("block should be warm after prefetch")
	}
	// Insufficient budget is a no-op.
	if used := tr.PrefetchBlock(100, time.Microsecond); used != 0 {
		t.Fatalf("underfunded prefetch cost = %v, want 0", used)
	}
	// Already-warm block costs nothing.
	if used := tr.PrefetchBlock(3, 10*time.Millisecond); used != 0 {
		t.Fatalf("warm prefetch cost = %v, want 0", used)
	}
	if got := tr.Stats().Prefetched; got != 1 {
		t.Fatalf("prefetched = %d, want 1", got)
	}
}

func TestPrefetchRangeBudget(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	// Budget for exactly two cold blocks.
	used, frontier := tr.PrefetchRange(0, 100, 2*time.Millisecond)
	if used != 2*time.Millisecond {
		t.Fatalf("used = %v, want 2ms", used)
	}
	if !tr.IsWarm(0) || !tr.IsWarm(10) || tr.IsWarm(20) {
		t.Fatal("exactly the first two blocks should be warm")
	}
	if frontier != 20 {
		t.Fatalf("frontier = %d, want 20 (first unprocessed value)", frontier)
	}
	// A later call resumes from the frontier and skips warm blocks free.
	used, frontier = tr.PrefetchRange(0, 100, 2*time.Millisecond)
	if used != 2*time.Millisecond || frontier != 40 {
		t.Fatalf("resume used=%v frontier=%d, want 2ms/40", used, frontier)
	}
}

func TestCool(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	tr.Access(0)
	tr.Cool()
	if tr.WarmBlocks() != 0 {
		t.Fatal("Cool should drop all warmth")
	}
	cost := tr.Access(0)
	if cost != time.Millisecond+time.Microsecond {
		t.Fatalf("post-Cool access should be cold, got %v", cost)
	}
}

func TestResetStats(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, testParams(), nil)
	tr.Access(0)
	tr.ResetStats()
	if tr.Stats() != (Stats{}) {
		t.Fatalf("stats after reset = %+v", tr.Stats())
	}
	if !tr.IsWarm(0) {
		t.Fatal("ResetStats must keep warmth")
	}
}

func TestZeroBlockValuesClamped(t *testing.T) {
	clock := vclock.New()
	tr := New(clock, Params{BlockValues: 0, ColdLatency: time.Millisecond}, nil)
	tr.Access(3) // must not divide by zero
	if tr.Block(3) != 3 {
		t.Fatalf("block size should clamp to 1, Block(3)=%d", tr.Block(3))
	}
}

func TestBytesReadAccounting(t *testing.T) {
	clock := vclock.New()
	p := testParams()
	tr := New(clock, p, nil)
	tr.Access(0)
	tr.Access(1)
	want := int64(p.BlockValues) * 8
	if got := tr.Stats().BytesRead; got != want {
		t.Fatalf("BytesRead = %d, want %d (one block)", got, want)
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	clock := vclock.New()
	p := testParams()
	p.WarmBudget = 0
	tr := New(clock, p, nil)
	for b := 0; b < 100; b++ {
		tr.Access(b * 10)
	}
	if tr.Stats().Evictions != 0 {
		t.Fatal("unlimited budget should never evict")
	}
	if tr.WarmBlocks() != 100 {
		t.Fatalf("warm blocks = %d", tr.WarmBlocks())
	}
}

func TestAccessRangeMatchesScalarLoop(t *testing.T) {
	// Block-granular ranged charging must match a per-value Access loop
	// in total cost, stats, and warm state.
	scalarClock, rangedClock := vclock.New(), vclock.New()
	scalar := New(scalarClock, testParams(), nil)
	ranged := New(rangedClock, testParams(), nil)
	var scalarCost time.Duration
	for i := 3; i < 28; i++ {
		scalarCost += scalar.Access(i)
	}
	rangedCost := ranged.AccessRange(3, 28)
	if scalarCost != rangedCost {
		t.Fatalf("costs diverge: scalar %v ranged %v", scalarCost, rangedCost)
	}
	if scalar.Stats() != ranged.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", scalar.Stats(), ranged.Stats())
	}
	if scalar.WarmBlocks() != ranged.WarmBlocks() {
		t.Fatal("warm state diverges")
	}
	if scalarClock.Now() != rangedClock.Now() {
		t.Fatal("clocks diverge")
	}
	// Re-reading warm data stays equivalent.
	if scalar.Access(5) != func() time.Duration { return ranged.AccessRange(5, 6) }() {
		t.Fatal("warm re-read diverges")
	}
}

func TestAccessRangeEmpty(t *testing.T) {
	tr := New(vclock.New(), testParams(), nil)
	if tr.AccessRange(7, 7) != 0 || tr.AccessRange(9, 2) != 0 {
		t.Fatal("empty range should be free")
	}
	if tr.Stats().ValuesRead != 0 {
		t.Fatal("empty range charged values")
	}
}

func TestAccessStridedMatchesScalarLoop(t *testing.T) {
	scalar := New(vclock.New(), testParams(), nil)
	ranged := New(vclock.New(), testParams(), nil)
	var scalarCost time.Duration
	for i := 2; i < 40; i += 3 {
		scalarCost += scalar.Access(i)
	}
	if got := ranged.AccessStrided(2, 40, 3); got != scalarCost {
		t.Fatalf("strided cost = %v, want %v", got, scalarCost)
	}
	if scalar.Stats() != ranged.Stats() {
		t.Fatalf("strided stats diverge: %+v vs %+v", scalar.Stats(), ranged.Stats())
	}
	if tr := New(vclock.New(), testParams(), nil); tr.AccessStrided(0, 10, 0) != 0 {
		t.Fatal("zero stride should be free")
	}
}

// TestAccessCountsMatchesScalarLoop: counts[i] reads against block b0+i
// cost, count, warm and advance the clock as that many Access calls to
// positions of each block, block after block — across a budget that
// evicts mid-run — and a non-positive count charges nothing.
func TestAccessCountsMatchesScalarLoop(t *testing.T) {
	scalarClock, countedClock := vclock.New(), vclock.New()
	scalar := New(scalarClock, testParams(), nil)
	counted := New(countedClock, testParams(), nil)
	check := func(label string, b0 int, counts []int32) {
		t.Helper()
		var scalarCost time.Duration
		for i, k := range counts {
			for j := 0; j < int(k); j++ {
				scalarCost += scalar.Access((b0+i)*10 + j)
			}
		}
		if got := counted.AccessCounts(b0, counts); got != scalarCost {
			t.Fatalf("%s: AccessCounts cost = %v, want %v", label, got, scalarCost)
		}
		if scalar.Stats() != counted.Stats() {
			t.Fatalf("%s: stats diverge: %+v vs %+v", label, scalar.Stats(), counted.Stats())
		}
		if scalarClock.Now() != countedClock.Now() {
			t.Fatalf("%s: clock %v, want %v", label, countedClock.Now(), scalarClock.Now())
		}
		for b := b0 - 3; b < b0+len(counts)+3; b++ {
			if scalar.IsWarm(b*10) != counted.IsWarm(b*10) {
				t.Fatalf("%s: block %d warm=%v, want %v", label, b, counted.IsWarm(b*10), scalar.IsWarm(b*10))
			}
		}
	}
	check("cold run", 2, []int32{7, 0, 3, -2, 10, 1})
	check("warm re-read", 6, []int32{1, 4})
	check("nothing to charge", 0, []int32{0, -3})
	check("empty run", 5, nil)
}

// TestWarmSetAscendingAcrossPages pins the WarmSet contract the eviction
// policies rely on: All yields warm blocks in ascending block order —
// negative blocks first, across page boundaries both sides of zero —
// with their last-use times; Set on a warm block moves its time without
// recounting it; drop and clear make blocks cold.
func TestWarmSetAscendingAcrossPages(t *testing.T) {
	var w WarmSet
	blocks := []int{1 << 20, 511, 512, 0, -1, -512, -513, 7, -3}
	for i, b := range blocks {
		w.Set(b, time.Duration(i))
	}
	w.Set(7, 99)
	if w.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(blocks))
	}
	want := []int{-513, -512, -3, -1, 0, 7, 511, 512, 1 << 20}
	var got []int
	for b, use := range w.All() {
		got = append(got, b)
		if wantUse, _ := w.LastUse(b); use != wantUse {
			t.Fatalf("block %d: All reports last use %v, LastUse %v", b, use, wantUse)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("All order = %v, want %v", got, want)
	}
	if use, ok := w.LastUse(7); !ok || use != 99 {
		t.Fatalf("LastUse(7) = %v, %v; want 99, true", use, ok)
	}
	if _, ok := w.LastUse(513); ok {
		t.Fatal("an untouched block on an allocated page reads warm")
	}
	if _, ok := w.LastUse(-1 << 30); ok {
		t.Fatal("a block on an unallocated page reads warm")
	}
	w.drop(-512)
	w.drop(-512)
	w.drop(4096) // never warm: a no-op
	if _, ok := w.LastUse(-512); ok || w.Len() != len(blocks)-1 {
		t.Fatalf("after drop: warm=%v Len=%d", ok, w.Len())
	}
	w.clear()
	if w.Len() != 0 {
		t.Fatalf("Len after clear = %d", w.Len())
	}
	for b := range w.All() {
		t.Fatalf("block %d still warm after clear", b)
	}
}

// TestTrackerNegativeBlocks charges blocks left of zero — a prefetch
// extrapolated past the start of the data reaches them — exactly like
// any other block.
func TestTrackerNegativeBlocks(t *testing.T) {
	tr := New(vclock.New(), testParams(), nil)
	used, frontier := tr.PrefetchRange(-25, 5, 10*time.Millisecond)
	if used != 3*time.Millisecond || frontier != 10 {
		t.Fatalf("PrefetchRange(-25, 5) used %v frontier %d, want 3ms and 10", used, frontier)
	}
	if !tr.IsWarm(-25) || !tr.IsWarm(-11) || !tr.IsWarm(0) {
		t.Fatal("blocks -2, -1 and 0 should be warm")
	}
	if cost := tr.Access(-20); cost != time.Microsecond {
		t.Fatalf("warm negative block access cost %v, want 1µs", cost)
	}
}
