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
	pass := true
	for _, idx := range o.order {
		ok, err := o.predicates[idx].Eval(m, row, trackers)
		if err != nil {
			return false, err
		}
		o.stats[idx].Observe(ok)
		if !ok {
			pass = false
			break
		}
	}
	if o.Enabled && o.evals%16 == 0 {
		o.reorder()
	}
	return pass, nil
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
