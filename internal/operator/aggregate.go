// Package operator implements dbTouch's incremental query operators. In a
// traditional kernel, operators pull tuples under the engine's control; in
// dbTouch every user touch pushes exactly one step of work through an
// operator (paper §2.3: the slide gesture is "equivalent to the next
// operation where an operator requests the next tuple to process", except
// the user triggers the next actions). Operators here are therefore
// incremental — they always have a current answer ready — and since the
// span-execution refactor each one absorbs work a *span* at a time: the
// tuple range a slide step swept arrives as one unit through the batch
// entry points (RunningAgg.AddSpan, predicate EvalSpan/selection vectors,
// IncrementalGroupBy.PushRange, SymmetricHashJoin.PushRange), with the
// tuple-at-a-time calls kept as the scalar reference path.
//
// Operator state is per-session: every exploration session owns its own
// aggregates, group tables and join state, so concurrent sessions never
// share operator instances (see internal/session).
package operator

import (
	"fmt"
	"math"

	"dbtouch/internal/storage"
)

// AggKind selects an aggregation function.
type AggKind uint8

// Supported aggregates.
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
	Var
	Stddev
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case Var:
		return "var"
	case Stddev:
		return "stddev"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// ParseAggKind resolves an aggregate by name (case-sensitive SQL-ish).
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "count", "COUNT":
		return Count, nil
	case "sum", "SUM":
		return Sum, nil
	case "avg", "AVG":
		return Avg, nil
	case "min", "MIN":
		return Min, nil
	case "max", "MAX":
		return Max, nil
	case "var", "VAR":
		return Var, nil
	case "stddev", "STDDEV":
		return Stddev, nil
	default:
		return 0, fmt.Errorf("operator: unknown aggregate %q", s)
	}
}

// FusableAgg reports whether kind's running state can absorb a fused
// filter+aggregate scan through RunningAgg.FuseFilter: count, sum, avg,
// min and max need only (n, sum, min, max), and the scan adds its exact
// sum into the running one as if every qualifier had been added —
// over float columns too, since no sum depends on the order of its
// terms. The Welford variance family needs the mean and m2 updated per
// value and must absorb values one at a time. The fusion dispatch (core's
// trySlideFused) consults this before routing a filtered slide through
// the fused kernels.
func FusableAgg(kind AggKind) bool {
	switch kind {
	case Count, Sum, Avg, Min, Max:
		return true
	default:
		return false
	}
}

// RunningAgg maintains a running aggregate that can absorb one value per
// touch and report the current answer at any time — the "running aggregate
// continuously updated" of paper §2.3. The sum is exact (storage.ExactSum)
// and rounded once per answer, so SUM and AVG do not depend on the order
// or grouping in which values arrive. Variance uses Welford's online
// algorithm so a single pass stays numerically stable however long the
// gesture wanders.
type RunningAgg struct {
	kind AggKind
	n    int64
	sum  storage.ExactSum
	min  float64
	max  float64
	mean float64
	m2   float64
	// counts is FuseFilter's per-block qualifying counts, kept so a
	// filtered slide reuses one buffer.
	counts []int32
}

// NewRunningAgg returns an empty running aggregate of the given kind.
func NewRunningAgg(kind AggKind) *RunningAgg {
	return &RunningAgg{kind: kind, min: math.Inf(1), max: math.Inf(-1)}
}

// Kind reports the aggregate function.
func (a *RunningAgg) Kind() AggKind { return a.kind }

// Add absorbs one value.
func (a *RunningAgg) Add(v float64) {
	a.n++
	a.sum.Add(v)
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	delta := v - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (v - a.mean)
}

// NeedsPerValue reports whether the aggregate's answer depends on the
// exact per-value update order (the Welford variance family). Such
// aggregates must absorb spans value by value (AddRangeTo); the others
// merge a whole span exactly via AddSpan.
func (a *RunningAgg) NeedsPerValue() bool { return a.kind == Var || a.kind == Stddev }

// AddSpan merges a span of n values with the given sum, minimum and
// maximum in O(1). For count/sum/avg/min/max the merged answer is exactly
// what n sequential Add calls would report whenever sum is the span's
// exact sum (the sum joins the running one exactly); the Welford mean/m2
// state is not maintained, so variance-family aggregates must use
// per-value absorption instead (see NeedsPerValue).
func (a *RunningAgg) AddSpan(n int64, sum, min, max float64) {
	if n <= 0 {
		return
	}
	a.n += n
	a.sum.Add(sum)
	a.extend(min, max)
}

// AddRange absorbs values [lo, hi) of col as one span: the sum exactly
// through Column.SumRange, the extrema through MinMaxRange. Like AddSpan
// it does not maintain the Welford state.
func (a *RunningAgg) AddRange(col *storage.Column, lo, hi int) {
	n := col.SumRange(lo, hi, &a.sum)
	if n == 0 {
		return
	}
	a.n += int64(n)
	min, max, _ := col.MinMaxRange(lo, hi)
	a.extend(min, max)
}

// extend widens the extrema to cover [min, max].
func (a *RunningAgg) extend(min, max float64) {
	if min < a.min {
		a.min = min
	}
	if max > a.max {
		a.max = max
	}
}

// N reports how many values have been absorbed.
func (a *RunningAgg) N() int64 { return a.n }

// Value reports the current aggregate answer. Aggregates over zero values
// report NaN for min/max/avg/var and 0 for count/sum.
func (a *RunningAgg) Value() float64 {
	switch a.kind {
	case Count:
		return float64(a.n)
	case Sum:
		return a.sum.Round()
	case Avg:
		if a.n == 0 {
			return math.NaN()
		}
		return a.sum.Round() / float64(a.n)
	case Min:
		if a.n == 0 {
			return math.NaN()
		}
		return a.min
	case Max:
		if a.n == 0 {
			return math.NaN()
		}
		return a.max
	case Var:
		if a.n < 2 {
			return math.NaN()
		}
		return a.m2 / float64(a.n-1)
	case Stddev:
		if a.n < 2 {
			return math.NaN()
		}
		return math.Sqrt(a.m2 / float64(a.n-1))
	default:
		return math.NaN()
	}
}
