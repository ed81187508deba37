package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"dbtouch/internal/storage"
)

// IntColumn generates a storage column of int64 values per spec.
func IntColumn(name string, spec Spec) *storage.Column {
	return storage.NewIntColumn(name, Ints(spec))
}

// FloatColumn generates a storage column of float64 values per spec.
func FloatColumn(name string, spec Spec) *storage.Column {
	return storage.NewFloatColumn(name, Floats(spec))
}

// Strings generates n strings drawn from a vocabulary of cardinality card.
func Strings(n int, card int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	if card <= 0 {
		card = 16
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%04d", rng.Intn(card))
	}
	return out
}

// Contains reports whether tuple id lies inside the planted region.
func (p Pattern) Contains(id int) bool { return id >= p.Start && id < p.End }

// Center returns the midpoint tuple of the region.
func (p Pattern) Center() int { return (p.Start + p.End) / 2 }

// PlantCorrelated plants a matched bump in two columns over the same
// region so that a join/correlation explorer can detect it.
func PlantCorrelated(a, b []float64, frac, width float64, seed int64) Pattern {
	p := Plant(a, Correlated, frac, width, seed)
	if len(b) == 0 {
		return p
	}
	n := len(b)
	for i := p.Start; i < p.End && i < n; i++ {
		phase := math.Pi * float64(i-p.Start) / float64(p.End-p.Start)
		b[i] += p.Magnitude * math.Sin(phase)
	}
	return p
}
