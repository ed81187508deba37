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
