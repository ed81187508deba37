// Package explorer implements the Appendix A exploration contest:
// "two audience members will simultaneously start exploring the data sets;
// one using the tablet dbTouch prototype, while the other will be using
// the SQL interface of the DBMS... The winner is the one who can first
// figure out the data properties and patterns."
//
// Humans are replaced by scripted analyst agents. Both agents pay
// "think time" — composing a SQL query takes far longer than deciding the
// next gesture — and both engines charge data access to the same virtual
// cost model, so the contest measures the end-to-end time-to-insight the
// paper argues about.
package explorer

import (
	"fmt"
	"math"
	"time"

	"dbtouch/internal/datagen"
	"dbtouch/internal/storage"
)

// Task is one contest data set with a planted pattern to discover.
type Task struct {
	Name    string
	Rows    int
	Column  *storage.Column
	IDs     *storage.Column // explicit position column for SQL range predicates
	Pattern datagen.Pattern
}

// NewTask builds a contest task: a float column of n values with one
// planted pattern, plus an id column (0..n-1) so the SQL agent can
// restrict ranges.
func NewTask(name string, kind datagen.PatternKind, n int, seed int64) Task {
	data := datagen.Floats(datagen.Spec{N: n, Seed: seed, Min: 0, Max: 1000})
	// Region position/width derive from the seed so tasks differ.
	frac := 0.15 + float64(seed%7)/10.0
	if frac > 0.8 {
		frac = 0.8
	}
	p := datagen.Plant(data, kind, frac, 0.03, seed+1)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return Task{
		Name:    name,
		Rows:    n,
		Column:  storage.NewFloatColumn("v", data),
		IDs:     storage.NewIntColumn("id", ids),
		Pattern: p,
	}
}

// Discovery is an agent's verdict.
type Discovery struct {
	// Found reports whether the agent located the planted region.
	Found bool
	// Lo and Hi bound the region the agent reported.
	Lo, Hi int
	// Elapsed is virtual time from contest start to the report.
	Elapsed time.Duration
	// MachineTime is Elapsed minus analyst think time — the pure
	// engine cost.
	MachineTime time.Duration
	// TuplesRead counts values the engine charged.
	TuplesRead int64
	// Actions counts gestures (dbTouch) or queries (SQL) issued.
	Actions int
}

// Correct checks the report against the planted pattern: the reported
// range must overlap the plant and not be absurdly wider than it.
func (d Discovery) Correct(p datagen.Pattern, rows int) bool {
	if !d.Found {
		return false
	}
	if !p.Overlaps(d.Lo, d.Hi) {
		return false
	}
	plantWidth := p.End - p.Start
	reportWidth := d.Hi - d.Lo
	// Reporting "the whole column" is not a discovery; allow a generous
	// 20x localization factor (and never stricter than 1% of the data).
	limit := plantWidth * 20
	if min := rows / 100; limit < min {
		limit = min
	}
	return reportWidth <= limit
}

// String renders the discovery.
func (d Discovery) String() string {
	if !d.Found {
		return "not found"
	}
	return fmt.Sprintf("[%d,%d) in %v (machine %v, %d tuples, %d actions)",
		d.Lo, d.Hi, d.Elapsed, d.MachineTime, d.TuplesRead, d.Actions)
}

// anomalousRegion finds the strongest signal in a series of window
// aggregates: either a point anomaly (a window whose value deviates from
// the series) or a change point (an adjacent pair with an outsized jump,
// the level-shift signature). It returns the index range [lo, hi] of the
// implicated windows and whether anything exceeded the threshold.
func anomalousRegion(vals []float64, threshold float64) (lo, hi int, found bool) {
	if len(vals) < 4 {
		return 0, 0, false
	}
	z := zScores(vals)
	best, bestZ := -1, threshold
	for i, zv := range z {
		if math.Abs(zv) > bestZ {
			best, bestZ = i, math.Abs(zv)
		}
	}
	if best >= 0 {
		lo, hi = best, best
		for lo-1 >= 0 && math.Abs(z[lo-1]) > threshold/2 {
			lo--
		}
		for hi+1 < len(z) && math.Abs(z[hi+1]) > threshold/2 {
			hi++
		}
		// A run covering most of the series is a shift, not an outlier
		// region; fall through to change-point detection.
		if hi-lo < len(vals)/2 {
			return lo, hi, true
		}
	}
	// Change-point: z-score the first differences.
	diffs := make([]float64, len(vals)-1)
	for i := range diffs {
		diffs[i] = vals[i+1] - vals[i]
	}
	dz := zScores(diffs)
	best, bestZ = -1, threshold
	for i, zv := range dz {
		if math.Abs(zv) > bestZ {
			best, bestZ = i, math.Abs(zv)
		}
	}
	if best >= 0 {
		return best, best + 1, true
	}
	return 0, 0, false
}

// zScores computes per-point z-scores against the slice's own mean/std.
func zScores(vals []float64) []float64 {
	n := len(vals)
	if n < 3 {
		return make([]float64, n)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	out := make([]float64, n)
	if sd == 0 {
		return out
	}
	for i, v := range vals {
		out[i] = (v - mean) / sd
	}
	return out
}
