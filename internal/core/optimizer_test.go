package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// TestEvalSpanMatchesScalarLoop holds EvalSpan to its tuple-at-a-time
// reference (evalSpanScalar, then NoteSpan) on twin optimizers: one to
// three conjuncts over int, float and string columns, adaptation on and
// off, random spans — empty ones, and ones that cross the 16-evaluation
// reorder cadence. After every span the selection, each conjunct's
// selectivity bits, the order, the reorder count, and every tracker's
// clock and stats must agree.
func TestEvalSpanMatchesScalarLoop(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(1))
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	words := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}
	for i := 0; i < n; i++ {
		// Runs of similar rows, so selectivities drift along the column
		// and adaptation has orders to change.
		region := int64(i / 500)
		ints[i] = region*10 + rng.Int63n(40)
		floats[i] = rng.NormFloat64() + float64(region)
		if rng.Intn(50) == 0 {
			floats[i] = math.NaN()
		}
		strs[i] = words[(int(region)+rng.Intn(3))%len(words)]
	}
	m, err := storage.NewMatrix("t",
		storage.NewIntColumn("i", ints),
		storage.NewFloatColumn("f", floats),
		storage.NewStringColumn("s", strs),
	)
	if err != nil {
		t.Fatal(err)
	}
	ops := []operator.CmpOp{operator.Eq, operator.Ne, operator.Lt, operator.Le, operator.Gt, operator.Ge}
	conjunct := func(rng *rand.Rand) operator.Predicate {
		row := rng.Intn(n)
		p := operator.Predicate{Col: rng.Intn(3), Op: ops[rng.Intn(len(ops))]}
		switch p.Col {
		case 0:
			p.Operand = storage.IntValue(ints[row])
		case 1:
			p.Operand = storage.FloatValue(floats[row])
		default:
			p.Operand = storage.StringValue(strs[row])
		}
		return p
	}
	mkTrackers := func() ([]*iomodel.Tracker, *vclock.Clock) {
		clock := vclock.New()
		params := iomodel.Params{BlockValues: 64, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 6}
		return []*iomodel.Tracker{iomodel.New(clock, params, nil), iomodel.New(clock, params, nil), iomodel.New(clock, params, nil)}, clock
	}
	reorders := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		preds := make([]operator.Predicate, 1+seed%3)
		for i := range preds {
			preds[i] = conjunct(rng)
		}
		enabled := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/conjuncts=%d/enabled=%v", seed, len(preds), enabled), func(t *testing.T) {
			window := []int{8, 64}[rng.Intn(2)]
			ref := NewAdaptiveOptimizer(preds, window, enabled)
			span := NewAdaptiveOptimizer(preds, window, enabled)
			refTr, refClock := mkTrackers()
			spanTr, spanClock := mkTrackers()
			for step := 0; step < 60; step++ {
				w := []int{0, 1, rng.Intn(16), rng.Intn(40), rng.Intn(300)}[rng.Intn(5)]
				lo := rng.Intn(n - w + 1)
				want, err := ref.evalSpanScalar(m, lo, lo+w, refTr)
				if err != nil {
					t.Fatal(err)
				}
				ref.NoteSpan(w)
				got, err := span.EvalSpan(m, lo, lo+w, spanTr)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d [%d,%d): selection %v, want %v", step, lo, lo+w, got, want)
				}
				for i := range preds {
					if g, w := span.Selectivity(i), ref.Selectivity(i); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("step %d: conjunct %d selectivity %v, want %v", step, i, g, w)
					}
				}
				if g, w := span.Order(), ref.Order(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d: order %v, want %v", step, g, w)
				}
				if g, w := span.Reorders(), ref.Reorders(); g != w {
					t.Fatalf("step %d: %d reorders, want %d", step, g, w)
				}
				if g, w := spanClock.Now(), refClock.Now(); g != w {
					t.Fatalf("step %d: clock %v, want %v", step, g, w)
				}
				for c := range spanTr {
					if g, w := spanTr[c].Stats(), refTr[c].Stats(); g != w {
						t.Fatalf("step %d: column %d tracker stats %+v, want %+v", step, c, g, w)
					}
				}
			}
			reorders += span.Reorders()
		})
	}
	if reorders == 0 {
		t.Fatal("no script reordered its conjuncts")
	}
}
