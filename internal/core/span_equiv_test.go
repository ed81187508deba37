package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// The span-equivalence suite replays fixed gesture scripts through one
// kernel and holds everything the kernel emits to a recorded SHA-256: the
// complete Result stream, every field rendered (floats by their bits, so
// -0 and +0 differ and NaN payloads count), and the virtual clock after
// every gesture. Each digest in spanDigests was recorded at commit
// a4fb974, when a Config switch still ran every slide tuple-at-a-time
// through a scalar reference path: both paths ran each script and their
// digests were equal, with and without the assembly kernels. A stream
// that still matches is the one the per-row reference produced.

// equivRun is one kernel under a pinned script.
type equivRun struct {
	t      *testing.T
	k      *Kernel
	stream hash.Hash
	n      int
	head   []string // the first results rendered, shown on a mismatch
}

// headLen is how many results a digest mismatch prints.
const headLen = 20

// newEquivRun builds the kernel and checks its stream against the test's
// recorded digest when the test ends.
func newEquivRun(t *testing.T, mutate func(*Config)) *equivRun {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	r := &equivRun{t: t, k: NewKernel(cfg), stream: sha256.New()}
	r.k.OnResult(r.record)
	t.Cleanup(r.verify)
	return r
}

func (r *equivRun) record(res Result) {
	line := renderResult(res)
	r.stream.Write([]byte(line))
	r.stream.Write([]byte{'\n'})
	if len(r.head) < headLen {
		r.head = append(r.head, line)
	}
	r.n++
}

// verify compares the stream's digest with the recorded one.
func (r *equivRun) verify() {
	if r.t.Failed() {
		return
	}
	got := hex.EncodeToString(r.stream.Sum(nil))
	want, ok := spanDigests[r.t.Name()]
	switch {
	case !ok:
		r.t.Errorf("no digest recorded for %s: stream digest %s over %d results", r.t.Name(), got, r.n)
	case got != want:
		r.t.Errorf("stream digest %s over %d results, want %s; the first results:\n%s", got, r.n, want, strings.Join(r.head, "\n"))
	}
}

// renderResult renders every field of a Result, floats by their bits.
func renderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%d obj=%d tuple=%d col=%d value=%s agg=%#x window=[%d,%d) n=%d group=%q level=%d time=%d fade=%d latency=%d",
		r.Kind, r.ObjectID, r.TupleID, r.Col, renderValue(r.Value), math.Float64bits(r.Agg),
		r.WindowLo, r.WindowHi, r.N, r.GroupKey, r.Level, r.Time, r.FadeAt, r.Latency)
	if r.Matches != nil {
		b.WriteString(" matches=")
		for _, m := range r.Matches {
			fmt.Fprintf(&b, "(%d,%d,%s)", m.LeftID, m.RightID, renderValue(m.Key))
		}
	}
	if r.Tuple != nil {
		b.WriteString(" tuple=")
		for _, v := range r.Tuple {
			b.WriteString(renderValue(v))
		}
	}
	return b.String()
}

func renderValue(v storage.Value) string {
	return fmt.Sprintf("{%d %d %#x %t %q}", v.Type, v.I, math.Float64bits(v.F), v.B, v.S)
}

// TestRenderResultCoversEveryField fails when Result, JoinMatch or Value
// gains a field renderResult does not render.
func TestRenderResultCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{Result{}, 16}, {operator.JoinMatch{}, 3}, {storage.Value{}, 5}} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.want {
			t.Errorf("%T has %d fields; renderResult renders %d", c.v, n, c.want)
		}
	}
}

// mustFuse fails the test unless a touch took the fused filter+aggregate
// path.
func (r *equivRun) mustFuse() {
	r.t.Helper()
	if r.k.Counters().Get("touch.fused") == 0 {
		r.t.Fatal("the kernel never took the fused path")
	}
}

// step folds the virtual clock into the stream after each gesture.
func (r *equivRun) step() {
	fmt.Fprintf(r.stream, "clock=%d\n", r.k.Clock().Now())
}

// addColumn registers a column object.
func (r *equivRun) addColumn(m func() *storage.Matrix, col int, frame touchos.Rect) *Object {
	r.t.Helper()
	o, err := r.k.CreateColumnObject(m(), col, frame)
	if err != nil {
		r.t.Fatal(err)
	}
	return o
}

func (r *equivRun) addTable(m func() *storage.Matrix, frame touchos.Rect) *Object {
	r.t.Helper()
	o, err := r.k.CreateTableObject(m(), frame)
	if err != nil {
		r.t.Fatal(err)
	}
	return o
}

// slide sweeps the middle of an object between fractional heights.
func (r *equivRun) slide(o *Object, fromFrac, toFrac float64, dur time.Duration) {
	f := o.View().Frame()
	r.slideAtX(o, f.Origin.X+f.Size.W/2, fromFrac, toFrac, dur)
}

// slideAtX sweeps vertically at an absolute X (table objects: picks the
// touched attribute).
func (r *equivRun) slideAtX(o *Object, x, fromFrac, toFrac float64, dur time.Duration) {
	f := o.View().Frame()
	synth := gesture.Synth{}
	y := func(frac float64) float64 { return f.Origin.Y + 0.02 + frac*(f.Size.H-0.04) }
	r.k.Apply(synth.Slide(
		touchos.Point{X: x, Y: y(fromFrac)},
		touchos.Point{X: x, Y: y(toFrac)},
		r.k.Clock().Now()+time.Millisecond, dur,
	))
	r.step()
}

func (r *equivRun) idle(d time.Duration) {
	now := r.k.Clock().Now()
	r.k.RunIdle(now, now+d)
	r.step()
}

// randInts builds a deterministic pseudo-random integer column factory.
func randInts(seed int64, n int, max int64) func() *storage.Matrix {
	return func() *storage.Matrix {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(max)
		}
		m, err := storage.NewMatrix("t", storage.NewIntColumn("v", vals))
		if err != nil {
			panic(err)
		}
		return m
	}
}

func TestSpanEquivalenceAggregateKinds(t *testing.T) {
	for _, kind := range []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max, operator.Var, operator.Stddev} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addColumn(randInts(7, 60000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: ModeAggregate, Agg: kind})
			r.slide(obj, 0, 1, 1200*time.Millisecond)
			r.slide(obj, 1, 0.3, 600*time.Millisecond)
			r.idle(200 * time.Millisecond)
			r.slide(obj, 0.3, 0.9, 900*time.Millisecond)
		})
	}
}

func TestSpanEquivalenceVarOnFloats(t *testing.T) {
	// Variance-family aggregates absorb spans value by value, so even
	// float data stays bit-identical between the two paths.
	mkFloats := func() *storage.Matrix {
		rng := rand.New(rand.NewSource(11))
		vals := make([]float64, 40000)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 3.7
		}
		m, err := storage.NewMatrix("t", storage.NewFloatColumn("v", vals))
		if err != nil {
			panic(err)
		}
		return m
	}
	r := newEquivRun(t, nil)
	obj := r.addColumn(mkFloats, 0, touchos.NewRect(2, 2, 2, 10))
	obj.SetActions(Actions{Mode: ModeAggregate, Agg: operator.Stddev})
	r.slide(obj, 0, 1, 1500*time.Millisecond)
	r.slide(obj, 1, 0, 700*time.Millisecond)
}

func TestSpanEquivalenceSummary(t *testing.T) {
	for _, k := range []int{0, 3, 25, 400} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addColumn(randInts(13, 80000, 500), 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: k})
			r.slide(obj, 0, 1, 1500*time.Millisecond)
			obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Max, SummaryK: k})
			r.slide(obj, 1, 0, 800*time.Millisecond)
		})
	}
}

func TestSpanEquivalenceValueOrder(t *testing.T) {
	r := newEquivRun(t, nil)
	obj := r.addColumn(randInts(17, 30000, 100000), 0, touchos.NewRect(2, 2, 2, 10))
	obj.SetActions(Actions{Mode: ModeScan, ValueOrder: true})
	r.slide(obj, 0, 1, 800*time.Millisecond)
	obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 20, ValueOrder: true})
	r.slide(obj, 0, 1, 1200*time.Millisecond)
}

func TestSpanEquivalenceFiltered(t *testing.T) {
	mk := func() *storage.Matrix {
		rng := rand.New(rand.NewSource(23))
		n := 50000
		v := make([]int64, n)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(1000)
			a[i] = int64((i / 4000) % 3)
			b[i] = rng.Int63n(10)
		}
		m, err := storage.NewMatrix("t",
			storage.NewIntColumn("v", v),
			storage.NewIntColumn("a", a),
			storage.NewIntColumn("b", b),
		)
		if err != nil {
			panic(err)
		}
		return m
	}
	filters := []operator.Predicate{
		{Col: 1, Op: operator.Eq, Operand: storage.IntValue(1)},
		{Col: 2, Op: operator.Lt, Operand: storage.IntValue(7)},
	}
	for _, mode := range []Mode{ModeScan, ModeAggregate} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addColumn(mk, 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: mode, Agg: operator.Sum, Filters: filters})
			r.slide(obj, 0, 1, 1800*time.Millisecond)
			r.slide(obj, 1, 0.2, 700*time.Millisecond)
		})
	}
}

func TestSpanEquivalenceGroupBy(t *testing.T) {
	mk := func() *storage.Matrix {
		rng := rand.New(rand.NewSource(29))
		n := 30000
		vals := make([]int64, n)
		keys := make([]string, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
			keys[i] = string(rune('a' + rng.Intn(5)))
		}
		m, err := storage.NewMatrix("t",
			storage.NewIntColumn("v", vals),
			storage.NewStringColumn("k", keys),
		)
		if err != nil {
			panic(err)
		}
		return m
	}
	r := newEquivRun(t, nil)
	obj := r.addColumn(mk, 0, touchos.NewRect(2, 2, 2, 10))
	obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 10,
		Group: &GroupSpec{KeyCol: 1, ValCol: 0, Agg: operator.Sum}})
	r.slide(obj, 0, 1, 1500*time.Millisecond)
	r.slide(obj, 1, 0, 900*time.Millisecond)
}

func TestSpanEquivalenceJoin(t *testing.T) {
	mkSide := func(seed int64) func() *storage.Matrix {
		return randInts(seed, 8000, 2000)
	}
	r := newEquivRun(t, nil)
	left := r.addColumn(mkSide(31), 0, touchos.NewRect(2, 2, 2, 8))
	right := r.addColumn(mkSide(37), 0, touchos.NewRect(6, 2, 2, 8))
	a := left.Actions()
	a.Join = &JoinSpec{OtherObject: right.ID(), Side: JoinLeft}
	left.SetActions(a)

	r.slide(left, 0, 1, 900*time.Millisecond)
	r.slide(right, 0, 1, 900*time.Millisecond)
	r.slide(left, 1, 0, 600*time.Millisecond)
	r.slide(right, 0.2, 0.8, 600*time.Millisecond)
}

func TestSpanEquivalenceTableObject(t *testing.T) {
	mk := func() *storage.Matrix {
		rng := rand.New(rand.NewSource(41))
		n := 20000
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(100)
			b[i] = rng.Int63n(100)
		}
		m, err := storage.NewMatrix("t",
			storage.NewIntColumn("a", a),
			storage.NewIntColumn("b", b),
		)
		if err != nil {
			panic(err)
		}
		return m
	}
	for _, mode := range []Mode{ModeScan, ModeAggregate, ModeSummary} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addTable(mk, touchos.NewRect(2, 2, 6, 10))
			obj.SetActions(Actions{Mode: mode, Agg: operator.Avg, SummaryK: 15})
			r.slideAtX(obj, 3.5, 0, 1, 900*time.Millisecond) // left column
			r.slideAtX(obj, 6.5, 1, 0, 700*time.Millisecond) // right column
			r.slideAtX(obj, 3.5, 0.2, 0.9, 500*time.Millisecond)
		})
	}
}

// TestSpanEquivalenceRandomScript is the randomized gesture-script
// equivalence test: random mode switches, directions, durations, and
// idle pauses from fixed seeds.
func TestSpanEquivalenceRandomScript(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newEquivRun(t, nil)
			obj := r.addColumn(randInts(seed+100, 50000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			kinds := []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max, operator.Var, operator.Stddev}
			pos := 0.0
			for step := 0; step < 12; step++ {
				if rng.Intn(3) == 0 {
					mode := []Mode{ModeScan, ModeAggregate, ModeSummary}[rng.Intn(3)]
					a := Actions{
						Mode:     mode,
						Agg:      kinds[rng.Intn(len(kinds))],
						SummaryK: rng.Intn(60),
					}
					if rng.Intn(4) == 0 {
						a.ValueOrder = true
					}
					obj.SetActions(a)
				}
				switch rng.Intn(5) {
				case 0:
					r.idle(time.Duration(50+rng.Intn(400)) * time.Millisecond)
				default:
					next := rng.Float64()
					dur := time.Duration(200+rng.Intn(1200)) * time.Millisecond
					r.slide(obj, pos, next, dur)
					pos = next
				}
			}
		})
	}
}

// TestSpanEquivalenceFusedAggregate drives the fused filter+aggregate
// slide path: a single WHERE conjunct over the aggregated column itself,
// consumed only by the running aggregate, must produce a stream
// byte-identical to the scalar reference — and must actually take the
// fused path (asserted via the touch.fused counter).
func TestSpanEquivalenceFusedAggregate(t *testing.T) {
	filters := []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(600)}}
	for _, kind := range []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addColumn(randInts(51, 60000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: ModeAggregate, Agg: kind, Filters: filters})
			r.slide(obj, 0, 1, 1400*time.Millisecond)
			r.slide(obj, 1, 0.2, 700*time.Millisecond)
			r.idle(150 * time.Millisecond)
			r.slide(obj, 0.2, 0.8, 600*time.Millisecond)
			r.mustFuse()
		})
	}
}

// TestSpanEquivalenceFusedRepeatedSlides slides one fused object over the
// same column again and again, so the object's block memo answers
// the complete blocks an earlier span read — over integers, over the
// order-sensitive floats with NaN and ±Inf in the last fifth, and over
// signed zeros, where MIN under `>= 0` and MAX under `<= 0` tie between
// -0 and +0 — and changes the WHERE operand and back between rounds,
// which must start the memo over. Every stream stays byte-identical to
// the scalar reference's, aggregate bits included: only the first-wins
// rule tells -0 and +0 apart.
func TestSpanEquivalenceFusedRepeatedSlides(t *testing.T) {
	cases := []struct {
		name     string
		data     func() *storage.Matrix
		op       operator.CmpOp
		operands []float64
	}{
		{"int", randInts(57, 60000, 1000), operator.Lt, []float64{600, 300, 600}},
		{"float", orderSensitiveFloats(65, 60000, true), operator.Le, []float64{0, 2e16, 0}},
		{"zeros_ge", signedZeros(66, 60000), operator.Ge, []float64{0, 1, 0}},
		{"zeros_le", signedZeros(67, 60000), operator.Le, []float64{0, -1, 0}},
	}
	for _, kind := range []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max} {
		for _, tc := range cases {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				r := newEquivRun(t, func(c *Config) { c.IO.BlockValues = 128 })
				obj := r.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
				for _, operand := range tc.operands {
					obj.SetActions(Actions{Mode: ModeAggregate, Agg: kind, Filters: []operator.Predicate{{Col: 0, Op: tc.op, Operand: storage.FloatValue(operand)}}})
					r.slide(obj, 0, 1, 500*time.Millisecond)
					r.slide(obj, 1, 0, 400*time.Millisecond)
					r.slide(obj, 0.1, 0.9, 300*time.Millisecond)
				}
				r.mustFuse()
			})
		}
	}
}

// signedZeros builds a float column factory of +0, -0, 1, -1 and NaN.
func signedZeros(seed int64, n int) func() *storage.Matrix {
	return func() *storage.Matrix {
		rng := rand.New(rand.NewSource(seed))
		palette := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN()}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = palette[rng.Intn(len(palette))]
		}
		m, err := storage.NewMatrix("t", storage.NewFloatColumn("v", vals))
		if err != nil {
			panic(err)
		}
		return m
	}
}

// orderSensitiveFloats builds a float column factory whose left-to-right
// running sum differs from almost any other order of addition:
// full-mantissa values round differently in every order, a rare ±1e16
// lifts the sum to where a lone small addend is lost but a span's partial
// sum is not, -0 survives only until a +0 joins it, and subnormals vanish
// against anything. With specials the last fifth also holds NaN and ±Inf,
// so the stream first runs on finite sums and then has to carry the
// poisoned ones. Since every sum is exact, none of this may show: the
// answer is the same for every order (TestFloatSumOrderInvariance).
func orderSensitiveFloats(seed int64, n int, specials bool) func() *storage.Matrix {
	return func() *storage.Matrix {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			switch k := rng.Intn(2000); {
			case k == 0:
				vals[i] = math.Copysign(1e16, rng.Float64()-0.5)
			case k < 200:
				vals[i] = 1
			case k < 400:
				vals[i] = math.Copysign(0, -1)
			case k < 500:
				vals[i] = math.SmallestNonzeroFloat64
			default:
				vals[i] = rng.NormFloat64() * 5
			}
			if specials && i > n*4/5 && rng.Intn(40) == 0 {
				vals[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		}
		m, err := storage.NewMatrix("t", storage.NewFloatColumn("v", vals))
		if err != nil {
			panic(err)
		}
		return m
	}
}

// TestSpanEquivalenceFusedFloatColumn runs every fusable kind fused over
// a float column — sum and avg included — and holds its stream to the
// scalar reference's byte for byte: the fused scan's exact partial sums
// merge into the same exact running sum the reference's per-row adds
// build. The data makes any rounded reassociation visible, sliding both
// ways; `<= 2e16` lets NaN qualify (Value.Compare ranks it equal), `< 1`
// keeps the sum finite.
func TestSpanEquivalenceFusedFloatColumn(t *testing.T) {
	cases := []struct {
		name    string
		data    func() *storage.Matrix
		op      operator.CmpOp
		operand float64
		path    []float64 // fractional heights the finger visits in turn
	}{
		{"finite_down", orderSensitiveFloats(61, 40000, false), operator.Lt, 1.0, []float64{0, 1, 0.45, 1}},
		{"finite_up", orderSensitiveFloats(62, 40000, false), operator.Ge, -3.0, []float64{1, 0, 0.45, 0}},
		{"specials_down", orderSensitiveFloats(63, 40000, true), operator.Le, 2e16, []float64{0, 1, 0.45, 1}},
		{"specials_up", orderSensitiveFloats(64, 40000, true), operator.Ne, 1.0, []float64{0.75, 0, 1, 0.45}},
	}
	for _, kind := range []operator.AggKind{operator.Sum, operator.Avg, operator.Min, operator.Max, operator.Count} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					filters := []operator.Predicate{{Col: 0, Op: tc.op, Operand: storage.FloatValue(tc.operand)}}
					r := newEquivRun(t, nil)
					obj := r.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
					obj.SetActions(Actions{Mode: ModeAggregate, Agg: kind, Filters: filters})
					for i := 1; i < len(tc.path); i++ {
						r.slide(obj, tc.path[i-1], tc.path[i], 900*time.Millisecond)
					}
					r.mustFuse()
				})
			}
		})
	}
}

// sweepSum runs one full-height filtered SUM or AVG sweep over data on a
// fresh kernel and returns the last result: the aggregate over every
// qualifying row the sweep covered.
func sweepSum(t *testing.T, data func() *storage.Matrix, kind operator.AggKind, filter operator.Predicate, blockValues int, down bool) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IO.BlockValues = blockValues
	k := NewKernel(cfg)
	o, err := k.CreateColumnObject(data(), 0, touchos.NewRect(2, 2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	o.SetActions(Actions{Mode: ModeAggregate, Agg: kind, Filters: []operator.Predicate{filter}})
	f := o.View().Frame()
	from, to := f.Origin.Y+0.02, f.Origin.Y+f.Size.H-0.02
	if !down {
		from, to = to, from
	}
	x := f.Origin.X + f.Size.W/2
	synth := gesture.Synth{}
	k.Apply(synth.Slide(touchos.Point{X: x, Y: from}, touchos.Point{X: x, Y: to}, k.Clock().Now()+time.Millisecond, 10*time.Second))
	results := k.Results()
	if len(results) == 0 {
		t.Fatal("the sweep emitted nothing")
	}
	return results[len(results)-1]
}

// quietEnds replaces the first and last 1 000 rows of a float column
// factory's data with v, a value the test's filter rejects: a slide's
// first sample absorbs only its own row, so a sweep down and a sweep up
// skip different rows near their starts, and rows that never qualify
// make the two cover the same qualifying set.
func quietEnds(data func() *storage.Matrix, v float64) func() *storage.Matrix {
	return func() *storage.Matrix {
		col, err := data().Column(0)
		if err != nil {
			panic(err)
		}
		vals := append([]float64(nil), col.Floats()...)
		for i := 0; i < 1000; i++ {
			vals[i], vals[len(vals)-1-i] = v, v
		}
		m, err := storage.NewMatrix("t", storage.NewFloatColumn("v", vals))
		if err != nil {
			panic(err)
		}
		return m
	}
}

// bigSum is the sum of vals rounded once (bigAgg.sum).
func bigSum(vals []float64) float64 {
	a := newBigAgg()
	for _, v := range vals {
		a.addFloat(v)
	}
	return a.sum()
}

// TestFloatSumOrderInvariance is the property the exact running sum
// buys: over the order-sensitive float data, a full sweep's SUM and AVG
// have the bits of the filter's qualifying rows summed in math/big and
// rounded once, whether the sweep slides down or up and whether it
// charges cost-model blocks of 64, 1 024 or 4 096 rows (which re-chunk
// the fused scan) — every order of addition the pipeline can produce.
func TestFloatSumOrderInvariance(t *testing.T) {
	cases := []struct {
		name   string
		data   func() *storage.Matrix
		filter operator.Predicate
	}{
		{"finite", quietEnds(orderSensitiveFloats(71, 40000, false), 5), operator.Predicate{Col: 0, Op: operator.Lt, Operand: storage.FloatValue(1)}},
		{"finite_all", quietEnds(orderSensitiveFloats(72, 40000, false), 3e16), operator.Predicate{Col: 0, Op: operator.Le, Operand: storage.FloatValue(2e16)}},
		{"specials", quietEnds(orderSensitiveFloats(73, 40000, true), -5), operator.Predicate{Col: 0, Op: operator.Ge, Operand: storage.FloatValue(-3)}},
	}
	for _, tc := range cases {
		col, err := tc.data().Column(0)
		if err != nil {
			t.Fatal(err)
		}
		var qualified []float64
		for _, v := range col.Floats() {
			if tc.filter.Op.Apply(storage.FloatValue(v), tc.filter.Operand) {
				qualified = append(qualified, v)
			}
		}
		sum := bigSum(qualified)
		for _, kind := range []operator.AggKind{operator.Sum, operator.Avg} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				want := sum
				if kind == operator.Avg {
					want = sum / float64(len(qualified))
				}
				for _, bv := range []int{64, 1024, 4096} {
					for _, down := range []bool{true, false} {
						got := sweepSum(t, tc.data, kind, tc.filter, bv, down)
						if got.N != int64(len(qualified)) || math.Float64bits(got.Agg) != math.Float64bits(want) && !(math.IsNaN(got.Agg) && math.IsNaN(want)) {
							t.Fatalf("blocks of %d down=%v: %v over %d rows, want %v over %d", bv, down, got.Agg, got.N, want, len(qualified))
						}
					}
				}
			})
		}
	}
}

// TestSpanEquivalenceFusedSelective covers fused spans where most touches
// qualify nothing (the touch.filtered early-out) and where everything
// qualifies.
func TestSpanEquivalenceFusedSelective(t *testing.T) {
	for _, operand := range []int64{0, 5, 1000} { // ~0%, ~0.5%, 100% pass
		t.Run(fmt.Sprintf("lt_%d", operand), func(t *testing.T) {
			r := newEquivRun(t, nil)
			obj := r.addColumn(randInts(53, 40000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: ModeAggregate, Agg: operator.Sum,
				Filters: []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(operand)}}})
			r.slide(obj, 0, 1, 1200*time.Millisecond)
			r.slide(obj, 1, 0, 800*time.Millisecond)
		})
	}
}

// TestSpanEquivalenceFusedMultiConjunct drives the FilterSel-fused form:
// with adaptation disabled (fixed conjunct order) and the final conjunct
// reading the aggregated column, the prefix conjuncts evaluate normally
// and the last fuses with the aggregate over the survivors — over an
// integer column, and over an order-sensitive float one.
func TestSpanEquivalenceFusedMultiConjunct(t *testing.T) {
	const n = 50000
	gate := make([]int64, n)
	for i := range gate {
		gate[i] = int64((i / 3000) % 4)
	}
	// withGate pairs a one-column factory's values with the gate column.
	withGate := func(values func() *storage.Matrix) func() *storage.Matrix {
		return func() *storage.Matrix {
			v, err := values().Column(0)
			if err != nil {
				panic(err)
			}
			m, err := storage.NewMatrix("t", v, storage.NewIntColumn("a", gate))
			if err != nil {
				panic(err)
			}
			return m
		}
	}
	for _, tc := range []struct {
		name  string
		data  func() *storage.Matrix
		final operator.Predicate
	}{
		{"int", withGate(randInts(59, n, 1000)), operator.Predicate{Col: 0, Op: operator.Ge, Operand: storage.IntValue(250)}},
		{"float", withGate(orderSensitiveFloats(67, n, false)), operator.Predicate{Col: 0, Op: operator.Lt, Operand: storage.FloatValue(2.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			filters := []operator.Predicate{{Col: 1, Op: operator.Ne, Operand: storage.IntValue(2)}, tc.final}
			r := newEquivRun(t, func(c *Config) { c.AdaptiveOpt = false })
			obj := r.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
			obj.SetActions(Actions{Mode: ModeAggregate, Agg: operator.Avg, Filters: filters})
			r.slide(obj, 0, 1, 1600*time.Millisecond)
			r.slide(obj, 1, 0.1, 900*time.Millisecond)
			r.mustFuse()
		})
	}
}

func TestSpanEquivalenceValueOrderFiltered(t *testing.T) {
	r := newEquivRun(t, nil)
	obj := r.addColumn(randInts(43, 30000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
	filters := []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(500)}}
	obj.SetActions(Actions{Mode: ModeScan, ValueOrder: true, Filters: filters})
	r.slide(obj, 0, 1, 900*time.Millisecond)
	obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 15, ValueOrder: true, Filters: filters})
	r.slide(obj, 1, 0, 900*time.Millisecond)
}
