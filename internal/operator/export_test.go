package operator

import (
	"math"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// Reset clears the aggregate for reuse.
func (a *RunningAgg) Reset() {
	*a = RunningAgg{kind: a.kind, min: math.Inf(1), max: math.Inf(-1)}
}

// SeenLeft reports how many distinct left tuples have been pushed.
func (j *SymmetricHashJoin) SeenLeft() int { return j.nLeft }

// SeenRight reports how many distinct right tuples have been pushed.
func (j *SymmetricHashJoin) SeenRight() int { return j.nRight }

// Built reports whether the build phase has completed.
func (j *BlockingHashJoin) Built() bool { return j.built }

// SummaryResult reports one interactive summary.
type SummaryResult struct {
	// Lo and Hi bound the tuple range [Lo, Hi) actually aggregated.
	Lo, Hi int
	// Value is the window aggregate.
	Value float64
	// N is the number of entries aggregated.
	N int
}

// At computes the summary centered on tuple id, charging every value read
// to the tracker (which advances the virtual clock). A nil tracker skips
// cost accounting (used by tests and the baseline comparison).
func (s Summarizer) At(col *storage.Column, id int, tracker *iomodel.Tracker) SummaryResult {
	lo, hi := s.Window(id, col.Len())
	agg := NewRunningAgg(s.Kind)
	for i := lo; i < hi; i++ {
		if tracker != nil {
			tracker.Access(i)
		}
		agg.Add(col.Float(i))
	}
	return SummaryResult{Lo: lo, Hi: hi, Value: agg.Value(), N: int(agg.N())}
}

// Eval is EvalRange's per-row reference: it tests the predicate against
// tuple row of m, charging one value read per evaluation to the
// per-column tracker (trackers indexed by column; nil entries skip
// accounting).
func (p Predicate) Eval(m *storage.Matrix, row int, trackers []*iomodel.Tracker) (bool, error) {
	v, err := m.At(row, p.Col)
	if err != nil {
		return false, err
	}
	if p.Col < len(trackers) && trackers[p.Col] != nil {
		trackers[p.Col].Access(row)
	}
	return p.Op.Apply(v, p.Operand), nil
}

// Push is PushRange's per-tuple reference: it absorbs tuple id
// (idempotent for revisited tuples), charging both the key and value
// reads, and returns the group key's current aggregate.
func (g *IncrementalGroupBy) Push(id int, keyTracker, valTracker *iomodel.Tracker) (key string, value float64, ok bool) {
	if id < 0 || id >= g.keyCol.Len() || g.Seen(id) {
		return "", 0, false
	}
	g.markSeen(id)
	if keyTracker != nil {
		keyTracker.Access(id)
	}
	if valTracker != nil {
		valTracker.Access(id)
	}
	e := g.entryFor(id)
	e.agg.Add(g.valCol.Float(id))
	return e.name, e.agg.Value(), true
}
