package core

import (
	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// Eval evaluates the conjunction against tuple row of m with
// short-circuiting in the current adaptive order, charging reads through
// trackers, then reconsiders the order. Evaluated conjuncts update their
// selectivity; short-circuited ones learn nothing (they were not paid
// for).
func (o *AdaptiveOptimizer) Eval(m *storage.Matrix, row int, trackers []*iomodel.Tracker) (bool, error) {
	o.evals++
	pass, err := o.evalRow(m, row, trackers)
	if err != nil {
		return false, err
	}
	if o.Enabled && o.evals%16 == 0 {
		o.reorder()
	}
	return pass, nil
}

// evalSpanScalar is EvalSpan's tuple-at-a-time reference, short of the
// order bookkeeping that NoteSpan does: the rows of [lo, hi) that pass
// evalRow, in order.
func (o *AdaptiveOptimizer) evalSpanScalar(m *storage.Matrix, lo, hi int, trackers []*iomodel.Tracker) ([]int32, error) {
	var sel []int32
	for row := lo; row < hi; row++ {
		pass, err := o.evalRow(m, row, trackers)
		if err != nil {
			return nil, err
		}
		if pass {
			sel = append(sel, int32(row))
		}
	}
	return sel, nil
}

// evalRow evaluates the conjuncts in the current order against tuple row
// of m with short-circuiting, observing each evaluated conjunct and
// charging one read to its column's tracker.
func (o *AdaptiveOptimizer) evalRow(m *storage.Matrix, row int, trackers []*iomodel.Tracker) (bool, error) {
	for _, idx := range o.order {
		p := o.predicates[idx]
		v, err := m.At(row, p.Col)
		if err != nil {
			return false, err
		}
		if p.Col < len(trackers) && trackers[p.Col] != nil {
			trackers[p.Col].Access(row)
		}
		ok := p.Op.Apply(v, p.Operand)
		o.stats[idx].Observe(ok)
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Order returns the current evaluation order (indexes into the original
// predicate list).
func (o *AdaptiveOptimizer) Order() []int { return append([]int(nil), o.order...) }

// Selectivity reports the observed selectivity of predicate i.
func (o *AdaptiveOptimizer) Selectivity(i int) float64 { return o.stats[i].Selectivity() }

// Len reports how many results are currently buffered.
func (s *ResultStream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
