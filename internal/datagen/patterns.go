package datagen

import (
	"fmt"
	"math"
	"math/rand"
)

// PatternKind identifies a planted pattern for the exploration contest
// (paper Appendix A: "alternative data sets with a varying set of
// properties and patterns" that the audience must discover).
type PatternKind uint8

// Supported planted patterns.
const (
	// OutlierRegion shifts a contiguous region by a large offset.
	OutlierRegion PatternKind = iota
	// LevelShift raises everything after a change point.
	LevelShift
	// Spike plants a handful of extreme single values.
	Spike
	// TrendRegion superimposes a linear ramp on a region.
	TrendRegion
	// Correlated makes a secondary column track the primary in a region.
	Correlated
)

// String names the pattern kind.
func (k PatternKind) String() string {
	switch k {
	case OutlierRegion:
		return "outlier-region"
	case LevelShift:
		return "level-shift"
	case Spike:
		return "spike"
	case TrendRegion:
		return "trend-region"
	case Correlated:
		return "correlated"
	default:
		return fmt.Sprintf("PatternKind(%d)", uint8(k))
	}
}

// Pattern records where a pattern was planted so experiments can check
// whether an explorer found it.
type Pattern struct {
	Kind PatternKind
	// Start and End bound the affected tuple range [Start, End).
	Start, End int
	// Magnitude is the planted effect size in value units.
	Magnitude float64
}

// Overlaps reports whether [lo, hi) intersects the planted region.
func (p Pattern) Overlaps(lo, hi int) bool { return lo < p.End && hi > p.Start }

// Plant applies a pattern to data in place and returns its descriptor.
// frac positions the region start as a fraction of the column; width is
// the region length as a fraction. Magnitude scales with the data's
// spread so patterns remain discoverable across distributions.
func Plant(data []float64, kind PatternKind, frac, width float64, seed int64) Pattern {
	n := len(data)
	if n == 0 {
		return Pattern{Kind: kind}
	}
	start := clampInt(int(frac*float64(n)), 0, n-1)
	length := clampInt(int(width*float64(n)), 1, n-start)
	end := start + length
	spread := stddev(data)
	if spread == 0 {
		spread = 1
	}
	mag := 8 * spread
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case OutlierRegion:
		for i := start; i < end; i++ {
			data[i] += mag
		}
	case LevelShift:
		end = n
		for i := start; i < end; i++ {
			data[i] += mag
		}
	case Spike:
		// A few extreme bursts inside the region. Real transients span
		// consecutive readings, so each spike is a short run rather than
		// an isolated point (isolated points are invisible to any
		// sampling-based explorer).
		spikes := clampInt(length/1000, 3, 16)
		run := clampInt(length/50, 1, 2000)
		for s := 0; s < spikes; s++ {
			i := start + rng.Intn(maxIntPat(1, length-run))
			for j := 0; j < run && i+j < end; j++ {
				data[i+j] += mag * 4
			}
		}
	case TrendRegion:
		for i := start; i < end; i++ {
			data[i] += mag * float64(i-start) / float64(length)
		}
	case Correlated:
		// Correlation involves a second column; for a single column we
		// plant a smooth bump.
		for i := start; i < end; i++ {
			phase := math.Pi * float64(i-start) / float64(length)
			data[i] += mag * math.Sin(phase)
		}
	}
	return Pattern{Kind: kind, Start: start, End: end, Magnitude: mag}
}

// stddev computes the sample standard deviation of data.
func stddev(data []float64) float64 {
	if len(data) < 2 {
		return 0
	}
	var sum float64
	for _, v := range data {
		sum += v
	}
	mean := sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(data)-1))
}

func maxIntPat(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
