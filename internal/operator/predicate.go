package operator

import (
	"fmt"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// CmpOp is a comparison operator for predicates.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// ParseCmpOp resolves SQL comparison syntax — the canonical table the
// facade, the script language and the wire protocol all share.
func ParseCmpOp(op string) (CmpOp, error) {
	switch op {
	case "=", "==":
		return Eq, nil
	case "<>", "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	default:
		return 0, fmt.Errorf("operator: unknown comparison %q", op)
	}
}

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Apply evaluates "left op right" under Value.Compare semantics.
func (op CmpOp) Apply(left, right storage.Value) bool {
	c := left.Compare(right)
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	default:
		return false
	}
}

// Predicate is one conjunct of a WHERE restriction over a matrix column.
type Predicate struct {
	// Col is the attribute index the predicate reads.
	Col int
	Op  CmpOp
	// Operand is the constant compared against.
	Operand storage.Value
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("col%d %s %s", p.Col, p.Op, p.Operand)
}

// rangeOp converts to the storage-layer comparison enum. The two enums
// declare the same operators in the same order (see TestRangeOpMirrors).
func (op CmpOp) rangeOp() storage.RangeOp { return storage.RangeOp(op) }

// EvalRange evaluates the predicate over a tuple span of m, appending
// qualifying row ids to out. With sel == nil the span is [lo, hi); with a
// selection vector only those rows are evaluated (conjunct refinement).
// One read per evaluated row is charged to the predicate column's
// tracker, batched through ranged accounting so the virtual cost matches
// a per-row loop. It returns the refined selection and the number of
// rows evaluated.
func (p Predicate) EvalRange(m *storage.Matrix, lo, hi int, sel []int32, trackers []*iomodel.Tracker, out []int32) ([]int32, int, error) {
	var tracker *iomodel.Tracker
	if p.Col >= 0 && p.Col < len(trackers) {
		tracker = trackers[p.Col]
	}
	if lo < 0 {
		lo = 0
	}
	if n := m.NumRows(); hi > n {
		hi = n
	}
	if col, err := m.Column(p.Col); err == nil {
		if sel == nil {
			if tracker != nil {
				tracker.AccessRange(lo, hi)
			}
			return col.FilterRange(lo, hi, p.Op.rangeOp(), p.Operand, out), hi - lo, nil
		}
		ChargeSelection(tracker, sel)
		return col.FilterSel(sel, p.Op.rangeOp(), p.Operand, out), len(sel), nil
	}
	// Row-major fallback: per-row boxed evaluation, span-charged.
	eval := func(row int) (bool, error) {
		v, err := m.At(row, p.Col)
		if err != nil {
			return false, err
		}
		return p.Op.Apply(v, p.Operand), nil
	}
	if sel == nil {
		if tracker != nil {
			tracker.AccessRange(lo, hi)
		}
		for row := lo; row < hi; row++ {
			ok, err := eval(row)
			if err != nil {
				return out, row - lo, err
			}
			if ok {
				out = append(out, int32(row))
			}
		}
		return out, hi - lo, nil
	}
	ChargeSelection(tracker, sel)
	for _, row := range sel {
		ok, err := eval(int(row))
		if err != nil {
			return out, len(sel), err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, len(sel), nil
}

// ForEachRun invokes fn for every maximal contiguous run [lo, hi) of the
// ascending selection vector — the primitive behind span dispatch over
// selections.
func ForEachRun(sel []int32, fn func(lo, hi int)) {
	if len(sel) == 0 {
		return
	}
	runStart, prev := sel[0], sel[0]
	for _, r := range sel[1:] {
		if r != prev+1 {
			fn(int(runStart), int(prev)+1)
			runStart = r
		}
		prev = r
	}
	fn(int(runStart), int(prev)+1)
}

// ChargeSelection charges tracker one read per row of the ascending
// selection: it counts the rows in every cost-model block from the
// selection's first to its last, zeros for the blocks it skips, and
// charges the counts through AccessCounts in runs of up to 256 blocks —
// O(blocks), not O(runs): at mid selectivities a selection is mostly
// two-row runs. Cost, stats and warm state evolve as a per-row Access
// loop's would.
func ChargeSelection(tracker *iomodel.Tracker, sel []int32) {
	if tracker == nil || len(sel) == 0 {
		return
	}
	bv := tracker.Params().BlockValues
	var counts [256]int32
	b0 := int(sel[0]) / bv
	n := 0
	for i, end := 0, (b0+1)*bv; i < len(sel); end += bv {
		j := i
		for j < len(sel) && int(sel[j]) < end {
			j++
		}
		counts[n] = int32(j - i)
		i = j
		if n++; n == len(counts) || i == len(sel) {
			tracker.AccessCounts(b0, counts[:n])
			b0, n = b0+n, 0
		}
	}
}

// ConjunctStats tracks the observed selectivity and cost of one predicate
// over a sliding window of recent touches. The adaptive optimizer
// (paper §2.9 "Optimization") reorders conjuncts as gestures wander into
// data regions with different properties, so the statistics must forget:
// a decayed counter halves the weight of history every window.
type ConjunctStats struct {
	// window is the decay period in evaluations.
	window  int
	evals   float64
	passes  float64
	samples int
}

// NewConjunctStats returns stats with the given decay window (values
// <= 0 select 64).
func NewConjunctStats(window int) *ConjunctStats {
	if window <= 0 {
		window = 64
	}
	return &ConjunctStats{window: window}
}

// Observe records one evaluation outcome.
func (s *ConjunctStats) Observe(passed bool) {
	s.evals++
	if passed {
		s.passes++
	}
	s.samples++
	if s.samples >= s.window {
		// Exponential decay: keep half the weight.
		s.evals /= 2
		s.passes /= 2
		s.samples = 0
	}
}

// Selectivity estimates the probability a tuple passes. With no
// observations it returns 0.5 (uninformative prior).
func (s *ConjunctStats) Selectivity() float64 {
	if s.evals == 0 {
		return 0.5
	}
	return s.passes / s.evals
}
