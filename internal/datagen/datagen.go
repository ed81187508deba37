// Package datagen produces the synthetic data sets used throughout the
// reproduction: the paper evaluates on "a column of 10^7 integer values"
// and motivates exploration with astronomy and IT-monitoring streams whose
// interesting regions must be *discovered*. Generators are deterministic
// given a seed so every experiment is repeatable.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist selects a value distribution.
type Dist uint8

// Supported distributions.
const (
	Uniform Dist = iota
	Normal
	Zipf
	Sorted
	Steps
	Periodic
)

// String names the distribution.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case Zipf:
		return "zipf"
	case Sorted:
		return "sorted"
	case Steps:
		return "steps"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("Dist(%d)", uint8(d))
	}
}

// Spec describes a synthetic column.
type Spec struct {
	Dist Dist
	N    int
	Seed int64
	// Min/Max bound Uniform and Sorted values and scale other dists.
	Min, Max float64
	// Mean/Stddev configure Normal.
	Mean, Stddev float64
	// ZipfS and ZipfV configure Zipf (s > 1, v >= 1).
	ZipfS, ZipfV float64
	// StepLevels is the number of plateaus for Steps.
	StepLevels int
	// Period is the cycle length (in rows) for Periodic.
	Period int
}

// Ints generates an int64 column per spec.
func Ints(spec Spec) []int64 {
	f := Floats(spec)
	out := make([]int64, len(f))
	for i, v := range f {
		out[i] = int64(math.Round(v))
	}
	return out
}

// Floats generates a float64 column per spec.
func Floats(spec Spec) []float64 {
	rng := rand.New(rand.NewSource(spec.Seed))
	out := make([]float64, spec.N)
	lo, hi := spec.Min, spec.Max
	if hi <= lo {
		lo, hi = 0, 1000
	}
	span := hi - lo
	switch spec.Dist {
	case Normal:
		mean, sd := spec.Mean, spec.Stddev
		if sd <= 0 {
			mean, sd = lo+span/2, span/6
		}
		for i := range out {
			out[i] = rng.NormFloat64()*sd + mean
		}
	case Zipf:
		s, v := spec.ZipfS, spec.ZipfV
		if s <= 1 {
			s = 1.2
		}
		if v < 1 {
			v = 1
		}
		z := rand.NewZipf(rng, s, v, uint64(span))
		for i := range out {
			out[i] = lo + float64(z.Uint64())
		}
	case Sorted:
		for i := range out {
			out[i] = lo + span*float64(i)/float64(max(1, spec.N-1))
		}
	case Steps:
		levels := spec.StepLevels
		if levels <= 0 {
			levels = 5
		}
		per := max(1, spec.N/levels)
		for i := range out {
			level := min(i/per, levels-1)
			out[i] = lo + span*float64(level)/float64(max(1, levels-1))
		}
	case Periodic:
		period := spec.Period
		if period <= 0 {
			period = max(1, spec.N/20)
		}
		for i := range out {
			phase := 2 * math.Pi * float64(i%period) / float64(period)
			out[i] = lo + span/2 + span/2*math.Sin(phase)
		}
	default: // Uniform
		for i := range out {
			out[i] = lo + rng.Float64()*span
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
