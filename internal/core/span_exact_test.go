package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// The unfiltered span differential: unfiltered aggregate slides and
// summary windows over a column object read their sample level's entries
// through the storage span kernels. Every result they emit is held to a
// math/big evaluator over exactly the level entries it covered, read
// from the test's own copy of the data (entry k of level L is row
// k·2^L): the count, the sum of the finite entries added exactly and
// rounded once (an exact zero is +0), NaN and the infinities settled by
// the IEEE rule, and the extrema of a scalar `<` loop.

// spanData is one column the differential slides over: floats, or ints
// when ints is set.
type spanData struct {
	name   string
	floats []float64
	ints   []int64
}

func (d spanData) len() int {
	if d.ints != nil {
		return len(d.ints)
	}
	return len(d.floats)
}

// column copies rows [0, n) into a fresh column.
func (d spanData) column(n int) *storage.Column {
	if d.ints != nil {
		return storage.NewIntColumn("v", append([]int64(nil), d.ints[:n]...))
	}
	return storage.NewFloatColumn("v", append([]float64(nil), d.floats[:n]...))
}

// rows returns rows [lo, hi) as an append batch.
func (d spanData) rows(lo, hi int) [][]storage.Value {
	out := make([][]storage.Value, 0, hi-lo)
	for r := lo; r < hi; r++ {
		var v storage.Value
		if d.ints != nil {
			v = storage.IntValue(d.ints[r])
		} else {
			v = storage.FloatValue(d.floats[r])
		}
		out = append(out, []storage.Value{v})
	}
	return out
}

// bigAgg is the reference aggregate over level entries.
type bigAgg struct {
	n             int64
	acc           *big.Float
	nan, pos, neg bool
	min, max      float64
}

func newBigAgg() *bigAgg {
	// 2 200 bits hold every float64 from 2^-1074 to 2^1024 with room for
	// the carries, so no addition rounds.
	return &bigAgg{acc: new(big.Float).SetPrec(2200), min: math.Inf(1), max: math.Inf(-1)}
}

// add absorbs row r of d.
func (a *bigAgg) add(d spanData, r int) {
	if d.ints != nil {
		a.count(float64(d.ints[r]))
		a.acc.Add(a.acc, new(big.Float).SetInt64(d.ints[r]))
		return
	}
	a.addFloat(d.floats[r])
}

// addFloat absorbs v: NaN and the infinities are noted, finite values
// added exactly.
func (a *bigAgg) addFloat(v float64) {
	a.count(v)
	switch {
	case math.IsNaN(v):
		a.nan = true
	case math.IsInf(v, 1):
		a.pos = true
	case math.IsInf(v, -1):
		a.neg = true
	default:
		a.acc.Add(a.acc, new(big.Float).SetFloat64(v))
	}
}

// count counts v and widens the extrema by it.
func (a *bigAgg) count(v float64) {
	a.n++
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
}

// sum is the exact sum rounded once to the nearest float64.
func (a *bigAgg) sum() float64 {
	switch {
	case a.nan || a.pos && a.neg:
		return math.NaN()
	case a.pos:
		return math.Inf(1)
	case a.neg:
		return math.Inf(-1)
	case a.acc.Sign() == 0:
		return 0
	}
	f, _ := a.acc.Float64()
	return f
}

// value answers kind over the absorbed entries; the variance family
// reports the mean, as a summary window does.
func (a *bigAgg) value(kind operator.AggKind) float64 {
	switch kind {
	case operator.Count:
		return float64(a.n)
	case operator.Sum:
		return a.sum()
	case operator.Min, operator.Max:
		if a.n == 0 {
			return math.NaN()
		}
		if kind == operator.Min {
			return a.min
		}
		return a.max
	default:
		if a.n == 0 {
			return math.NaN()
		}
		return a.sum() / float64(a.n)
	}
}

// sameAnswer compares a result with the reference: by bits, NaN equal to
// NaN, and for MIN/MAX by value too, since which of a tie between -0 and
// +0 wins depends on the order the spans arrived in.
func sameAnswer(kind operator.AggKind, got, want float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return (kind == operator.Min || kind == operator.Max) && got == want
}

// coveredEntries is the reference for the level entries a slide step
// newly covers: from the entry after the previous touch's entry through
// the touched one (or back), every index clamped into the level; the
// first touch of a slide covers its own entry only.
func coveredEntries(prevID, id, stride, n int) (from, to int) {
	clamp := func(i int) int { return max(0, min(i, n-1)) }
	cur := clamp(id / stride)
	if prevID < 0 {
		return cur, cur + 1
	}
	prev := clamp(prevID / stride)
	if cur >= prev {
		return prev + 1, cur + 1
	}
	return cur, prev
}

// spanDataSets are the columns the differential covers.
func spanDataSets() []spanData {
	const n = 20000
	ones := func(first float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		v[0] = first
		return v
	}
	specialLate := func(first float64) []float64 {
		v := ones(first)
		v[n*5/8] = math.Inf(-1)
		return v
	}
	zeros := make([]float64, n)
	for i := range zeros {
		if i%3 != 0 || i > n/2 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	zeros[n/4] = 0.5
	mixed, err := orderSensitiveFloats(81, n, true)().Column(0)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(82))
	wide := make([]int64, n)
	for i := range wide {
		// Odd values below 2^52 in magnitude: a span's sum passes 2^53,
		// where rounding it to float64 before it joins the running sum
		// shows, and the script's spans (at most a summary window's 121
		// entries) stay far inside int64.
		wide[i] = (rng.Int63n(1<<53) - 1<<52) | 1
	}
	small := make([]int64, n)
	for i := range small {
		small[i] = rng.Int63n(1000) - 500
	}
	return []spanData{
		// 1e16 and then ones: a span sum taken as the difference of
		// two rounded running float sums reads 0 over any run of ones.
		{name: "ones_after_1e16", floats: ones(1e16)},
		// One non-finite value decides only the spans that hold it.
		{name: "inf_first", floats: specialLate(math.Inf(1))},
		{name: "nan_first", floats: specialLate(math.NaN())},
		{name: "signed_zeros", floats: zeros},
		{name: "mixed_specials", floats: append([]float64(nil), mixed.Floats()...)},
		{name: "wide_ints", ints: wide},
		{name: "small_ints", ints: small},
	}
}

// spanSlide is one slide of the script: fractional heights and duration.
type spanSlide struct {
	from, to float64
	dur      time.Duration
}

// spanScript mixes slow slides (fine levels) with fast ones (coarse
// levels), both directions, and runs off both ends of the column so
// windows clamp there. Every slide begins on the object: one that begins
// off it starts no slide there, and its first step on the object spans
// back to the previous slide's last touch.
var spanScript = []spanSlide{
	{0.5, 1, 900 * time.Millisecond},
	{1, 0.35, 250 * time.Millisecond},
	{0, 1.05, 3 * time.Second},
	{0.9, 0.55, 80 * time.Millisecond},
	{0.6, -0.05, 1200 * time.Millisecond},
}

// spanCoverage records which shapes the differential met, so a script
// change cannot quietly stop exercising them.
type spanCoverage struct {
	runs          int // subtests run, all of them unless -run picks some
	levels        map[int]bool
	emptySpans    int
	clampedWindow int
}

// TestUnfilteredSpansExact holds every unfiltered aggregate slide (count,
// sum, avg, min, max) and every summary window (those and var, which
// reports the window mean) over static and live column objects, float
// and int, to the math/big reference over the entries each result
// covered — and holds the values each result charged, all of them to
// its own level, to that count. A live object starts with 60% of the
// rows and gains the rest in two appends between slides.
func TestUnfilteredSpansExact(t *testing.T) {
	aggKinds := []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max}
	summaryKinds := append(aggKinds[:len(aggKinds):len(aggKinds)], operator.Var)
	cov := spanCoverage{levels: map[int]bool{}}
	sets := spanDataSets()
	for _, d := range sets {
		t.Run(d.name, func(t *testing.T) {
			for _, live := range []bool{false, true} {
				for _, mode := range []Mode{ModeAggregate, ModeSummary} {
					kinds := aggKinds
					if mode == ModeSummary {
						kinds = summaryKinds
					}
					for _, kind := range kinds {
						name := fmt.Sprintf("live=%v/%v/%v", live, mode, kind)
						t.Run(name, func(t *testing.T) { runSpanDifferential(t, d, live, mode, kind, &cov) })
					}
				}
			}
		})
	}
	if cov.runs < len(sets)*2*(len(aggKinds)+len(summaryKinds)) {
		return
	}
	if len(cov.levels) < 3 || cov.emptySpans == 0 || cov.clampedWindow == 0 {
		t.Fatalf("the script met levels %v, %d empty slide spans, %d clamped windows", cov.levels, cov.emptySpans, cov.clampedWindow)
	}
}

func runSpanDifferential(t *testing.T, d spanData, live bool, mode Mode, kind operator.AggKind, cov *spanCoverage) {
	cov.runs++
	k := NewKernel(DefaultConfig())
	r := &equivRun{t: t, k: k, stream: sha256.New()} // for its slide helper: no digest is checked
	n := d.len()
	shown := n
	var tbl *storage.Table
	var m *storage.Matrix
	var err error
	if live {
		shown = n * 3 / 5
		tbl, err = storage.NewTable("live", d.column(shown))
		if err != nil {
			t.Fatal(err)
		}
		k.Catalog().RegisterLive(tbl)
		m = tbl.Snapshot().Matrix
	} else if m, err = storage.NewMatrix("t", d.column(n)); err != nil {
		t.Fatal(err)
	}
	o, err := k.CreateColumnObject(m, 0, touchos.NewRect(2, 2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	o.SetActions(Actions{Mode: mode, Agg: kind, SummaryK: 60})
	running := newBigAgg()
	prevID := -1
	var read int64               // values charged so far, all levels
	levelRead := map[int]int64{} // values charged so far, per level
	results := 0
	k.OnResult(func(res Result) {
		if res.ObjectID != o.id {
			return
		}
		results++
		stride, rows := 1<<res.Level, o.Rows()
		levelLen := (rows + stride - 1) / stride
		var from, to int
		want := running
		if mode == ModeAggregate {
			from, to = coveredEntries(prevID, o.lastID, stride, levelLen)
			prevID = o.lastID
			for e := from; e < to; e++ {
				running.add(d, e*stride)
			}
			if from == to {
				cov.emptySpans++
			}
		} else {
			from, to = res.WindowLo/stride, min((res.WindowHi+stride-1)/stride, levelLen)
			want = newBigAgg()
			for e := from; e < to; e++ {
				want.add(d, e*stride)
			}
			if res.WindowLo == 0 || res.WindowHi == rows {
				cov.clampedWindow++
			}
		}
		cov.levels[res.Level] = true
		lvl, err := o.Hierarchy().Level(res.Level)
		if err != nil {
			t.Fatal(err)
		}
		charged := o.Hierarchy().TotalStats().ValuesRead - read
		atLevel := lvl.Tracker.Stats().ValuesRead - levelRead[res.Level]
		read += charged
		levelRead[res.Level] += atLevel
		if charged != int64(to-from) || atLevel != charged {
			t.Fatalf("%v at level %d: charged %d values, %d of them there, for entries [%d,%d)", kind, res.Level, charged, atLevel, from, to)
		}
		if res.N != want.n || !sameAnswer(kind, res.Agg, want.value(kind)) {
			t.Fatalf("%v at level %d after entries [%d,%d): %v over %d, want %v over %d",
				kind, res.Level, from, to, res.Agg, res.N, want.value(kind), want.n)
		}
	})
	for i, s := range spanScript {
		if live && (i == 1 || i == 3) {
			next := min(n, shown+n/5)
			if _, err := tbl.AppendBatch(d.rows(shown, next)); err != nil {
				t.Fatal(err)
			}
			shown = next
		}
		prevID = -1
		r.slide(o, s.from, s.to, s.dur)
	}
	// Two steps one touch position (100 rows) apart, the second at a
	// finger speed that selects a coarse level: it lands on the first
	// one's entry there and covers nothing.
	f := o.View().Frame()
	prevID = -1
	for i, dy := range []float64{0, 0.06} {
		at := k.Clock().Now() + time.Duration(i)*16*time.Millisecond
		ev := gesture.Event{Loc: touchos.Point{X: f.Origin.X + f.Size.W/2, Y: f.Origin.Y + f.Size.H/2 + dy}, Time: at, Velocity: touchos.Point{Y: 100}}
		if i == 0 {
			o.beginSlide(ev)
		}
		o.processSlideStep(ev)
	}
	if results == 0 || o.Rows() != n {
		t.Fatalf("%d results; the object ends on %d of %d rows", results, o.Rows(), n)
	}
}
