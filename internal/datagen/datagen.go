// Package datagen produces the synthetic data sets used throughout the
// reproduction: the paper evaluates on "a column of 10^7 integer values"
// and motivates exploration with astronomy and IT-monitoring streams whose
// interesting regions must be *discovered*. Generators are deterministic
// given a seed so every experiment is repeatable.
package datagen

import (
	"math"
	"math/rand"
)

// Spec describes a synthetic column of uniformly distributed values.
type Spec struct {
	N    int
	Seed int64
	// Min/Max bound the values, drawn from [Min, Max); Max <= Min
	// selects [0, 1000).
	Min, Max float64
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
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}
