package core

import (
	"dbtouch/internal/iomodel"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
)

// AdaptiveOptimizer reorders WHERE conjuncts on the fly (paper §2.9
// "Optimization"): dbTouch cannot know up front which part of the data a
// gesture will cover, and different regions have different properties, so
// per-predicate selectivities are observed over a decaying window of
// recent touches and the evaluation order adapts — cheapest expected work
// first — without ever blocking a touch.
type AdaptiveOptimizer struct {
	// Enabled gates adaptation (the ablation switch); disabled keeps the
	// user-declared order.
	Enabled bool

	predicates []operator.Predicate
	stats      []*operator.ConjunctStats
	order      []int
	reorders   int
	evals      int64

	// selA/selB are reusable selection scratch buffers for EvalSpan.
	selA, selB []int32
}

// NewAdaptiveOptimizer wraps the given conjuncts. window is the decay
// window for selectivity statistics.
func NewAdaptiveOptimizer(predicates []operator.Predicate, window int, enabled bool) *AdaptiveOptimizer {
	o := &AdaptiveOptimizer{Enabled: enabled, predicates: predicates}
	o.stats = make([]*operator.ConjunctStats, len(predicates))
	o.order = make([]int, len(predicates))
	for i := range predicates {
		o.stats[i] = operator.NewConjunctStats(window)
		o.order[i] = i
	}
	return o
}

// EvalSpan evaluates the conjunction over tuple span [lo, hi) of m and
// returns the qualifying rows in ascending order (a selection vector that
// aliases internal scratch; callers must consume it before the next
// call). Each conjunct filters the survivors of the previous ones in one
// storage kernel call, observing its statistics and charging its reads
// exactly as a per-row, short-circuiting loop in the current order
// would; the order is reconsidered only at span boundaries. With no
// conjuncts it returns nil: the whole span survives.
func (o *AdaptiveOptimizer) EvalSpan(m *storage.Matrix, lo, hi int, trackers []*iomodel.Tracker) ([]int32, error) {
	lo, hi = clampSpan(m, lo, hi)
	sel, err := o.evalConjuncts(m, lo, hi, trackers, len(o.order))
	if err != nil {
		return nil, err
	}
	o.NoteSpan(hi - lo)
	return sel, nil
}

// NoteSpan advances the evaluation counter by the span width and
// reconsiders the conjunct order at the same cadence as EvalSpan — the
// bookkeeping twin for the fused slide path, which evaluates conjuncts
// through the fused kernels instead of EvalSpan.
func (o *AdaptiveOptimizer) NoteSpan(n int) {
	prev := o.evals
	o.evals += int64(n)
	if o.Enabled && prev/16 != o.evals/16 {
		o.reorder()
	}
}

// FusionPlan splits the conjunction for the fused filter+aggregate slide
// path: the first prefixLen conjuncts of the current order are evaluated
// normally (EvalSpanPrefix), and the final conjunct — which must read
// col, the aggregated column — fuses with the aggregate scan. The fused
// kernel reports only aggregate outcomes, not per-row ones, so the final
// conjunct's selectivity statistics go unobserved; the split is therefore
// offered only when that cannot change observable behavior — a single
// conjunct (the order cannot change), or adaptation disabled (the
// statistics are never consulted).
func (o *AdaptiveOptimizer) FusionPlan(col int) (final operator.Predicate, prefixLen int, ok bool) {
	n := len(o.order)
	if n == 0 {
		return operator.Predicate{}, 0, false
	}
	last := o.predicates[o.order[n-1]]
	if last.Col != col {
		return operator.Predicate{}, 0, false
	}
	if n > 1 && o.Enabled {
		return operator.Predicate{}, 0, false
	}
	return last, n - 1, true
}

// EvalSpanPrefix evaluates the first prefixLen conjuncts of the current
// order over [lo, hi) exactly as EvalSpan does — same kernels, same
// charges, same statistics — and returns the surviving selection
// (aliasing internal scratch, like EvalSpan). prefixLen == 0 returns nil:
// the whole span survives. Unlike EvalSpan it does not advance the
// evaluation counter; the caller completes the span with the fused final
// conjunct and then calls NoteSpan.
func (o *AdaptiveOptimizer) EvalSpanPrefix(m *storage.Matrix, lo, hi int, trackers []*iomodel.Tracker, prefixLen int) ([]int32, error) {
	lo, hi = clampSpan(m, lo, hi)
	return o.evalConjuncts(m, lo, hi, trackers, prefixLen)
}

// clampSpan clips [lo, hi) to m's rows.
func clampSpan(m *storage.Matrix, lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if n := m.NumRows(); hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// evalConjuncts refines [lo, hi) through the first n conjuncts of the
// current order. n == 0 returns nil: the whole span survives.
func (o *AdaptiveOptimizer) evalConjuncts(m *storage.Matrix, lo, hi int, trackers []*iomodel.Tracker, n int) ([]int32, error) {
	var sel []int32
	first := true
	for _, idx := range o.order[:n] {
		out := o.selB[:0]
		out, _, err := o.predicates[idx].EvalRange(m, lo, hi, sel, trackers, out)
		if err != nil {
			return nil, err
		}
		o.observeSpan(idx, lo, hi, sel, first, out)
		o.selA, o.selB = out, o.selA
		sel, first = out, false
		if len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

// observeSpan replays conjunct idx's span outcomes into its statistics in
// row order: evaluated rows are the previous selection (or the whole span
// for the first conjunct), passing rows the refined one. Row order
// matters because the decay window halves counters at fixed sample
// boundaries — this keeps the statistics bit-identical to a per-row
// loop's.
func (o *AdaptiveOptimizer) observeSpan(idx, lo, hi int, evaluated []int32, full bool, passing []int32) {
	s := o.stats[idx]
	j := 0
	observe := func(row int32) {
		passed := j < len(passing) && passing[j] == row
		if passed {
			j++
		}
		s.Observe(passed)
	}
	if full {
		for row := lo; row < hi; row++ {
			observe(int32(row))
		}
		return
	}
	for _, row := range evaluated {
		observe(row)
	}
}

// reorder sorts conjuncts by ascending selectivity: with uniform
// per-predicate cost, evaluating the most selective (lowest pass rate)
// first minimizes expected evaluations. The sort is a stable insertion
// sort in place — a WHERE has a handful of conjuncts, and one has no
// order to change.
func (o *AdaptiveOptimizer) reorder() {
	moved := false
	for i := 1; i < len(o.order); i++ {
		idx := o.order[i]
		sel := o.stats[idx].Selectivity()
		j := i
		for ; j > 0 && sel < o.stats[o.order[j-1]].Selectivity(); j-- {
			o.order[j] = o.order[j-1]
		}
		if j != i {
			o.order[j] = idx
			moved = true
		}
	}
	if moved {
		o.reorders++
	}
}

// Reorders reports how many times the order changed.
func (o *AdaptiveOptimizer) Reorders() int { return o.reorders }

// Len reports the number of conjuncts.
func (o *AdaptiveOptimizer) Len() int { return len(o.predicates) }
