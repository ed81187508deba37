package operator

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dbtouch/internal/cache"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// slideRows is scan_direct's table height: a full-height slide sweeps
// 4M rows, 32 MB of int64 — past the last-level cache, so these rows see
// the memory system the served slide sees, which the 1M-row storage
// benchmarks (8 MB) do not.
const slideRows = 4 << 20

// slideSteps is how many steps a /warmsteps slide takes, spans of about
// 35 000 rows; slideShifts is how many passes its cut points take to
// cycle through every shift they make.
const (
	slideSteps  = 120
	slideShifts = 61
)

// slideCases are scan_direct's four filtered aggregates, each with its
// ~50 %-selective `col < operand` conjunct; the two sums run side by
// side, since the float sum is held to within 1.3x of the int64 one.
// string/count is scan_direct's STRING column, 64 keys, whose pass table
// folds into the AVX2 count's bitmap; string1000/count is the same count
// over 1 000 keys, past the bitmap, on the table loop.
var slideCases = []struct {
	name    string
	col     string
	kind    AggKind
	operand storage.Value
}{
	{"int64/sum", "int64", Sum, storage.IntValue(500_000)},
	{"float64/sum", "float64", Sum, storage.FloatValue(500)},
	{"int64/max", "int64", Max, storage.IntValue(500_000)},
	{"string/count", "string", Count, storage.StringValue("k32")},
	{"string1000/count", "string1000", Count, storage.StringValue("k0500")},
}

var (
	slideColsOnce sync.Once
	slideCols     map[string]*storage.Column
)

// slideColumns builds scan_direct-shaped columns once: uniform ints in
// [0, 1e6), floats in [0, 1000), strings over bench/gen.go's 64 keys
// k00…k63, and strings over 1 000 keys k0000…k0999.
func slideColumns() map[string]*storage.Column {
	slideColsOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		ints := make([]int64, slideRows)
		flts := make([]float64, slideRows)
		for i := range ints {
			ints[i] = rng.Int63n(1_000_000)
			flts[i] = rng.Float64() * 1000
		}
		slideCols = map[string]*storage.Column{
			"int64":      storage.NewIntColumn("i", ints),
			"float64":    storage.NewFloatColumn("f", flts),
			"string":     stringSlideColumn(rng, 64, "k%02d"),
			"string1000": stringSlideColumn(rng, 1000, "k%04d"),
		}
	})
	return slideCols
}

// stringSlideColumn draws slideRows values uniformly from n keys.
func stringSlideColumn(rng *rand.Rand, n int, format string) *storage.Column {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(format, i)
	}
	strs := make([]string, slideRows)
	for i := range strs {
		strs[i] = keys[rng.Intn(n)]
	}
	return storage.NewStringColumn("s", strs)
}

// BenchmarkFuseFilterSlide is a full-height filtered slide as
// dbtouch-serve runs it: one fused scan over a 4M-row span (the scan
// behind RunningAgg.FuseFilter, its counts buffer reused and its sum
// added into one running ExactSum), chunked at the
// cost model's block size and charged to live gesture-aware trackers
// (predicate and value) on one virtual clock — the served object's
// configuration. After the first pass every block is warm (the 3 907
// blocks fit the 4 096-block budget), so the steady state is the
// warm-charging path plus the kernel. Bytes are the column's: 8 per row,
// 4 for a string's dictionary code, per slide. Each kind's /repeat case
// runs the slide twice through one fresh block memo, as an object's
// second pass over the same WHERE does: the first reads every block and
// keeps its partial, the second answers every block from the memo. Its
// /warm case is what a repeated served slide costs once both are done:
// the memo is filled and the blocks are warm before the timer starts, so
// it times memo answers plus charging. Its /warmsteps case is that warm
// slide as a served one runs it, in slideSteps steps whose spans start and
// end inside blocks, with cut points that move a few rows from one pass
// to the next, as a user's next slide lands a few rows away: each step
// folds the kept blocks its span covers and reads the parts of the two
// it cuts. Its memo is filled over a whole cycle of cut points before
// the timer starts.
func BenchmarkFuseFilterSlide(b *testing.B) {
	cols := slideColumns()
	for _, sc := range slideCases {
		for _, variant := range []string{"", "/repeat", "/warm", "/warmsteps"} {
			b.Run(sc.name+variant, func(b *testing.B) {
				col := cols[sc.col]
				clock := vclock.New()
				pred := iomodel.New(clock, iomodel.DefaultParams(), cache.NewGestureAware(8))
				val := iomodel.New(clock, iomodel.DefaultParams(), cache.NewGestureAware(8))
				var counts []int32
				var sum storage.ExactSum
				slide := func(memo *storage.FusedMemo) int {
					var fa storage.FilterAgg
					fa, counts = fuseFilterAgg(col, 0, slideRows, nil, Lt, sc.operand, pred, val, sc.kind, memo, &sum, counts[:0])
					return fa.N
				}
				// steps slides in slideSteps steps, every inner cut point
				// shifted by 3 rows a pass, through [0, slideShifts).
				steps := func(memo *storage.FusedMemo, pass int) int {
					shift := pass * 3 % slideShifts
					n, lo := 0, 0
					for s := 1; s <= slideSteps; s++ {
						hi := slideRows
						if s < slideSteps {
							hi = s*slideRows/slideSteps + shift
						}
						var fa storage.FilterAgg
						fa, counts = fuseFilterAgg(col, lo, hi, nil, Lt, sc.operand, pred, val, sc.kind, memo, &sum, counts[:0])
						n += fa.N
						lo = hi
					}
					return n
				}
				width := int64(8)
				if col.Type() == storage.String {
					width = 4
				}
				var memo storage.FusedMemo
				n := 0
				switch variant {
				case "/repeat":
					width *= 2
				case "/warm":
					n += slide(&memo)
				case "/warmsteps":
					for pass := 0; pass < slideShifts; pass++ {
						n += steps(&memo, pass)
					}
				}
				b.SetBytes(slideRows * width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch variant {
					case "":
						n += slide(nil)
					case "/repeat":
						memo = storage.FusedMemo{}
						n += slide(&memo) + slide(&memo)
					case "/warm":
						n += slide(&memo)
					case "/warmsteps":
						n += steps(&memo, i)
					}
				}
				if n == 0 {
					b.Fatal("no row qualified")
				}
			})
		}
	}
}
