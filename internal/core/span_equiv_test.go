package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// The span-equivalence suite runs identical gesture scripts through two
// kernels that differ only in Config.ScalarSlide and asserts the emitted
// Result streams are byte-identical — the vectorized span kernels must be
// indistinguishable from the tuple-at-a-time reference path, including
// virtual-time stamps and latencies. Integer-valued data makes every sum
// exact, so even prefix-sum span aggregation reproduces the scalar
// stream bit for bit.

// equivPair is one scalar/vector kernel pair under a shared script.
type equivPair struct {
	t       *testing.T
	scalar  *Kernel
	vector  *Kernel
	objects [][2]*Object // [i] = {scalar object, vector object}
}

func newEquivPair(t *testing.T, mutate func(*Config)) *equivPair {
	t.Helper()
	mk := func(scalarSlide bool) *Kernel {
		cfg := DefaultConfig()
		cfg.ScalarSlide = scalarSlide
		if mutate != nil {
			mutate(&cfg)
		}
		return NewKernel(cfg)
	}
	return &equivPair{t: t, scalar: mk(true), vector: mk(false)}
}

// addColumn registers the same column object on both kernels.
func (p *equivPair) addColumn(m func() *storage.Matrix, col int, frame touchos.Rect) int {
	p.t.Helper()
	so, err := p.scalar.CreateColumnObject(m(), col, frame)
	if err != nil {
		p.t.Fatal(err)
	}
	vo, err := p.vector.CreateColumnObject(m(), col, frame)
	if err != nil {
		p.t.Fatal(err)
	}
	p.objects = append(p.objects, [2]*Object{so, vo})
	return len(p.objects) - 1
}

func (p *equivPair) addTable(m func() *storage.Matrix, frame touchos.Rect) int {
	p.t.Helper()
	so, err := p.scalar.CreateTableObject(m(), frame)
	if err != nil {
		p.t.Fatal(err)
	}
	vo, err := p.vector.CreateTableObject(m(), frame)
	if err != nil {
		p.t.Fatal(err)
	}
	p.objects = append(p.objects, [2]*Object{so, vo})
	return len(p.objects) - 1
}

func (p *equivPair) setActions(obj int, a Actions) {
	p.objects[obj][0].SetActions(a)
	p.objects[obj][1].SetActions(a)
}

// slide sweeps both twins between fractional heights of the object.
func (p *equivPair) slide(obj int, fromFrac, toFrac float64, dur time.Duration) {
	p.t.Helper()
	for i, k := range []*Kernel{p.scalar, p.vector} {
		o := p.objects[obj][i]
		f := o.View().Frame()
		synth := gesture.Synth{}
		y := func(frac float64) float64 { return f.Origin.Y + 0.02 + frac*(f.Size.H-0.04) }
		events := synth.Slide(
			touchos.Point{X: f.Origin.X + f.Size.W/2, Y: y(fromFrac)},
			touchos.Point{X: f.Origin.X + f.Size.W/2, Y: y(toFrac)},
			k.Clock().Now()+time.Millisecond, dur,
		)
		k.Apply(events)
	}
	p.check()
}

// slideAtX sweeps vertically at an absolute X (table objects: picks the
// touched attribute).
func (p *equivPair) slideAtX(obj int, x, fromFrac, toFrac float64, dur time.Duration) {
	p.t.Helper()
	for i, k := range []*Kernel{p.scalar, p.vector} {
		o := p.objects[obj][i]
		f := o.View().Frame()
		synth := gesture.Synth{}
		y := func(frac float64) float64 { return f.Origin.Y + 0.02 + frac*(f.Size.H-0.04) }
		events := synth.Slide(
			touchos.Point{X: x, Y: y(fromFrac)},
			touchos.Point{X: x, Y: y(toFrac)},
			k.Clock().Now()+time.Millisecond, dur,
		)
		k.Apply(events)
	}
	p.check()
}

func (p *equivPair) idle(d time.Duration) {
	for _, k := range []*Kernel{p.scalar, p.vector} {
		now := k.Clock().Now()
		k.RunIdle(now, now+d)
	}
	p.check()
}

// resultsEqual is DeepEqual except that two NaN aggregates compare equal
// (variance of a single sample is NaN on both paths, and NaN != NaN).
func resultsEqual(a, b Result) bool {
	if math.IsNaN(a.Agg) && math.IsNaN(b.Agg) {
		a.Agg, b.Agg = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// check asserts the two kernels are indistinguishable so far.
func (p *equivPair) check() {
	p.t.Helper()
	sr, vr := p.scalar.Results(), p.vector.Results()
	if len(sr) != len(vr) {
		p.t.Fatalf("result counts diverge: scalar %d vector %d", len(sr), len(vr))
	}
	for i := range sr {
		if !resultsEqual(sr[i], vr[i]) {
			p.t.Fatalf("result %d diverges:\n scalar: %+v\n vector: %+v", i, sr[i], vr[i])
		}
	}
	if p.scalar.Clock().Now() != p.vector.Clock().Now() {
		p.t.Fatalf("virtual clocks diverge: scalar %v vector %v", p.scalar.Clock().Now(), p.vector.Clock().Now())
	}
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
			p := newEquivPair(t, nil)
			obj := p.addColumn(randInts(7, 60000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: ModeAggregate, Agg: kind})
			p.slide(obj, 0, 1, 1200*time.Millisecond)
			p.slide(obj, 1, 0.3, 600*time.Millisecond)
			p.idle(200 * time.Millisecond)
			p.slide(obj, 0.3, 0.9, 900*time.Millisecond)
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
	p := newEquivPair(t, nil)
	obj := p.addColumn(mkFloats, 0, touchos.NewRect(2, 2, 2, 10))
	p.setActions(obj, Actions{Mode: ModeAggregate, Agg: operator.Stddev})
	p.slide(obj, 0, 1, 1500*time.Millisecond)
	p.slide(obj, 1, 0, 700*time.Millisecond)
}

func TestSpanEquivalenceSummary(t *testing.T) {
	for _, k := range []int{0, 3, 25, 400} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p := newEquivPair(t, nil)
			obj := p.addColumn(randInts(13, 80000, 500), 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: k})
			p.slide(obj, 0, 1, 1500*time.Millisecond)
			p.setActions(obj, Actions{Mode: ModeSummary, Agg: operator.Max, SummaryK: k})
			p.slide(obj, 1, 0, 800*time.Millisecond)
		})
	}
}

func TestSpanEquivalenceValueOrder(t *testing.T) {
	p := newEquivPair(t, nil)
	obj := p.addColumn(randInts(17, 30000, 100000), 0, touchos.NewRect(2, 2, 2, 10))
	p.setActions(obj, Actions{Mode: ModeScan, ValueOrder: true})
	p.slide(obj, 0, 1, 800*time.Millisecond)
	p.setActions(obj, Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 20, ValueOrder: true})
	p.slide(obj, 0, 1, 1200*time.Millisecond)
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
			p := newEquivPair(t, nil)
			obj := p.addColumn(mk, 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: mode, Agg: operator.Sum, Filters: filters})
			p.slide(obj, 0, 1, 1800*time.Millisecond)
			p.slide(obj, 1, 0.2, 700*time.Millisecond)
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
	p := newEquivPair(t, nil)
	obj := p.addColumn(mk, 0, touchos.NewRect(2, 2, 2, 10))
	p.setActions(obj, Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 10,
		Group: &GroupSpec{KeyCol: 1, ValCol: 0, Agg: operator.Sum}})
	p.slide(obj, 0, 1, 1500*time.Millisecond)
	p.slide(obj, 1, 0, 900*time.Millisecond)
}

func TestSpanEquivalenceJoin(t *testing.T) {
	mkSide := func(seed int64) func() *storage.Matrix {
		return randInts(seed, 8000, 2000)
	}
	p := newEquivPair(t, nil)
	left := p.addColumn(mkSide(31), 0, touchos.NewRect(2, 2, 2, 8))
	right := p.addColumn(mkSide(37), 0, touchos.NewRect(6, 2, 2, 8))
	a := p.objects[left][0].Actions()
	a.Join = &JoinSpec{OtherObject: p.objects[right][0].ID(), Side: JoinLeft}
	// Wire the join on each kernel with its own object ids.
	p.objects[left][0].SetActions(a)
	av := p.objects[left][1].Actions()
	av.Join = &JoinSpec{OtherObject: p.objects[right][1].ID(), Side: JoinLeft}
	p.objects[left][1].SetActions(av)

	p.slide(left, 0, 1, 900*time.Millisecond)
	p.slide(right, 0, 1, 900*time.Millisecond)
	p.slide(left, 1, 0, 600*time.Millisecond)
	p.slide(right, 0.2, 0.8, 600*time.Millisecond)
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
			p := newEquivPair(t, nil)
			obj := p.addTable(mk, touchos.NewRect(2, 2, 6, 10))
			p.setActions(obj, Actions{Mode: mode, Agg: operator.Avg, SummaryK: 15})
			p.slideAtX(obj, 3.5, 0, 1, 900*time.Millisecond) // left column
			p.slideAtX(obj, 6.5, 1, 0, 700*time.Millisecond) // right column
			p.slideAtX(obj, 3.5, 0.2, 0.9, 500*time.Millisecond)
		})
	}
}

// TestSpanEquivalenceRandomScript is the randomized gesture-script
// equivalence test: random mode switches, directions, durations, and
// idle pauses, replayed identically on both kernels.
func TestSpanEquivalenceRandomScript(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newEquivPair(t, nil)
			obj := p.addColumn(randInts(seed+100, 50000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
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
					p.setActions(obj, a)
				}
				switch rng.Intn(5) {
				case 0:
					p.idle(time.Duration(50+rng.Intn(400)) * time.Millisecond)
				default:
					next := rng.Float64()
					dur := time.Duration(200+rng.Intn(1200)) * time.Millisecond
					p.slide(obj, pos, next, dur)
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
// fused path on the vector kernel (asserted via the touch.fused counter).
func TestSpanEquivalenceFusedAggregate(t *testing.T) {
	filters := []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(600)}}
	for _, kind := range []operator.AggKind{operator.Count, operator.Sum, operator.Avg, operator.Min, operator.Max} {
		t.Run(kind.String(), func(t *testing.T) {
			p := newEquivPair(t, nil)
			obj := p.addColumn(randInts(51, 60000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: ModeAggregate, Agg: kind, Filters: filters})
			p.slide(obj, 0, 1, 1400*time.Millisecond)
			p.slide(obj, 1, 0.2, 700*time.Millisecond)
			p.idle(150 * time.Millisecond)
			p.slide(obj, 0.2, 0.8, 600*time.Millisecond)
			if fused := p.vector.Counters().Get("touch.fused"); fused == 0 {
				t.Fatal("vector kernel never took the fused path")
			}
			if fused := p.scalar.Counters().Get("touch.fused"); fused != 0 {
				t.Fatal("scalar kernel took the fused path")
			}
		})
	}
}

// TestSpanEquivalenceFusedRepeatedSlides slides one fused object over the
// same column again and again, so the vector kernel's block memo answers
// the complete blocks an earlier span read — over integers, over the
// order-sensitive floats with NaN and ±Inf in the last fifth, and over
// signed zeros, where MIN under `>= 0` and MAX under `<= 0` tie between
// -0 and +0 — and changes the WHERE operand and back between rounds,
// which must start the memo over. Every stream stays byte-identical to
// the scalar reference, aggregate bits included: the suite's DeepEqual
// holds -0 equal to +0, and only the first-wins rule tells them apart.
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
				p := newEquivPair(t, func(c *Config) { c.IO.BlockValues = 128 })
				obj := p.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
				for _, operand := range tc.operands {
					p.setActions(obj, Actions{Mode: ModeAggregate, Agg: kind, Filters: []operator.Predicate{{Col: 0, Op: tc.op, Operand: storage.FloatValue(operand)}}})
					p.slide(obj, 0, 1, 500*time.Millisecond)
					p.slide(obj, 1, 0, 400*time.Millisecond)
					p.slide(obj, 0.1, 0.9, 300*time.Millisecond)
					sr, vr := p.scalar.Results(), p.vector.Results()
					for i := range sr {
						if a, b := sr[i].Agg, vr[i].Agg; math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
							t.Fatalf("result %d: scalar aggregate %v (bits %#x), vector %v (bits %#x)", i, a, math.Float64bits(a), b, math.Float64bits(b))
						}
					}
				}
				if p.vector.Counters().Get("touch.fused") == 0 {
					t.Fatal("vector kernel never took the fused path")
				}
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
// scalar reference byte for byte: the fused scan's exact partial sums
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
					p := newEquivPair(t, nil)
					obj := p.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
					p.setActions(obj, Actions{Mode: ModeAggregate, Agg: kind, Filters: filters})
					for i := 1; i < len(tc.path); i++ {
						p.slide(obj, tc.path[i-1], tc.path[i], 900*time.Millisecond)
					}
					if p.vector.Counters().Get("touch.fused") == 0 {
						t.Fatalf("%v over floats never took the fused path", kind)
					}
					if p.scalar.Counters().Get("touch.fused") != 0 {
						t.Fatal("scalar kernel took the fused path")
					}
				})
			}
		})
	}
}

// sweepSum runs one full-height filtered SUM or AVG sweep over data on a
// fresh kernel and returns the last result: the aggregate over every
// qualifying row the sweep covered.
func sweepSum(t *testing.T, data func() *storage.Matrix, kind operator.AggKind, filter operator.Predicate, blockValues int, scalar, down bool) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IO.BlockValues = blockValues
	cfg.ScalarSlide = scalar
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

// TestFloatSumOrderInvariance is the property the exact running sum
// buys: over the order-sensitive float data, a full sweep's SUM and AVG
// have the same bits whether the sweep runs fused or through the scalar
// reference, slides down or up, and charges cost-model blocks of 64,
// 1 024 or 4 096 rows (which re-chunk the fused scan) — every order of
// addition the pipeline can produce.
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
		for _, kind := range []operator.AggKind{operator.Sum, operator.Avg} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				want := sweepSum(t, tc.data, kind, tc.filter, 1024, true, true)
				for _, bv := range []int{64, 1024, 4096} {
					for _, scalar := range []bool{false, true} {
						for _, down := range []bool{true, false} {
							got := sweepSum(t, tc.data, kind, tc.filter, bv, scalar, down)
							if got.N != want.N || math.Float64bits(got.Agg) != math.Float64bits(want.Agg) && !(math.IsNaN(got.Agg) && math.IsNaN(want.Agg)) {
								t.Fatalf("blocks of %d scalar=%v down=%v: %v over %d rows, want %v over %d", bv, scalar, down, got.Agg, got.N, want.Agg, want.N)
							}
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
			p := newEquivPair(t, nil)
			obj := p.addColumn(randInts(53, 40000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: ModeAggregate, Agg: operator.Sum,
				Filters: []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(operand)}}})
			p.slide(obj, 0, 1, 1200*time.Millisecond)
			p.slide(obj, 1, 0, 800*time.Millisecond)
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
			p := newEquivPair(t, func(c *Config) { c.AdaptiveOpt = false })
			obj := p.addColumn(tc.data, 0, touchos.NewRect(2, 2, 2, 10))
			p.setActions(obj, Actions{Mode: ModeAggregate, Agg: operator.Avg, Filters: filters})
			p.slide(obj, 0, 1, 1600*time.Millisecond)
			p.slide(obj, 1, 0.1, 900*time.Millisecond)
			if fused := p.vector.Counters().Get("touch.fused"); fused == 0 {
				t.Fatal("vector kernel never took the fused multi-conjunct path")
			}
		})
	}
}

func TestSpanEquivalenceValueOrderFiltered(t *testing.T) {
	p := newEquivPair(t, nil)
	obj := p.addColumn(randInts(43, 30000, 1000), 0, touchos.NewRect(2, 2, 2, 10))
	filters := []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.IntValue(500)}}
	p.setActions(obj, Actions{Mode: ModeScan, ValueOrder: true, Filters: filters})
	p.slide(obj, 0, 1, 900*time.Millisecond)
	p.setActions(obj, Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 15, ValueOrder: true, Filters: filters})
	p.slide(obj, 1, 0, 900*time.Millisecond)
}
