package storage

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigRound is the reference: the exact sum of vals in math/big, rounded
// once to the nearest float64 (ties to even), with an exact zero as +0.
// vals must be finite.
func bigRound(vals []float64, ints []int64) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, v := range vals {
		sum.Add(sum, new(big.Float).SetPrec(4096).SetFloat64(v))
	}
	for _, v := range ints {
		sum.Add(sum, new(big.Float).SetPrec(4096).SetInt64(v))
	}
	if sum.Sign() == 0 {
		return 0
	}
	f, _ := sum.Float64()
	return f
}

func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randFinite draws doubles across the whole exponent range, subnormals
// and both signs included, with runs of near-equal magnitudes so that
// cancellation happens.
func randFinite(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero
	case 1:
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	case 2:
		return float64(rng.Intn(2001)-1000) / 8
	default:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(120)-60)
	}
}

func TestExactSumMatchesBigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := rng.Intn(5000)
		if round%50 == 0 {
			n = 3*sumMaxTerms + rng.Intn(100) // cross several carry passes
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = randFinite(rng)
		}
		var ints []int64
		var s ExactSum
		for _, v := range vals {
			s.Add(v)
			if rng.Intn(50) == 0 {
				k := rng.Int63() - rng.Int63()
				ints = append(ints, k)
				s.AddInt(k)
			}
		}
		want := bigRound(vals, ints)
		if got := s.Round(); !sameBits(got, want) {
			t.Fatalf("round %d (n=%d): Round = %v (%#x), math/big = %v (%#x)", round, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		// Any split, merged back in any order, lands on the same bits.
		var parts [3]ExactSum
		for _, v := range vals {
			parts[rng.Intn(3)].Add(v)
		}
		for _, k := range ints {
			parts[rng.Intn(3)].AddInt(k)
		}
		var merged ExactSum
		for _, i := range rng.Perm(3) {
			merged.Merge(&parts[i])
		}
		if got := merged.Round(); !sameBits(got, want) {
			t.Fatalf("round %d: merged = %v, math/big = %v", round, got, want)
		}
	}
}

func TestExactSumEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	minNormal := math.Ldexp(1, -1022)
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all -0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"cancel to zero", []float64{0.1, -0.1, 1e300, -1e300}, 0},
		{"tie down to even", []float64{1, math.Ldexp(1, -53)}, 1},
		{"tie up to even", []float64{1 + math.Ldexp(1, -52), math.Ldexp(1, -53)}, 1 + math.Ldexp(1, -51)},
		{"tie broken by a sticky bit", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -160)}, 1 + math.Ldexp(1, -52)},
		{"just below a tie", []float64{1, math.Ldexp(1, -53), -math.Ldexp(1, -160)}, 1},
		{"2^53 + 1", []float64{1 << 53, 1}, 1 << 53},
		{"2^53 + 3", []float64{1 << 53, 1, 1, 1}, 1<<53 + 4},
		{"subnormals", []float64{tiny, tiny, 3 * tiny}, 5 * tiny},
		{"subnormals into normal", []float64{minNormal - tiny, tiny}, minNormal},
		{"mantissa carry into the next binade", []float64{math.Nextafter(2, 0), math.Ldexp(1, -52)}, 2},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"negative overflow", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{"rounds up to overflow", []float64{math.MaxFloat64, math.Ldexp(1, 970)}, math.Inf(1)},
		{"stays below overflow", []float64{math.MaxFloat64, math.Ldexp(1, 969)}, math.MaxFloat64},
		{"cancelling overflow", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{"1e16 next to ones", []float64{1e16, 1, 1, -1e16}, 2},
	}
	for _, tc := range cases {
		var s ExactSum
		for _, v := range tc.vals {
			s.Add(v)
		}
		if got := s.Round(); !sameBits(got, tc.want) {
			t.Errorf("%s: Round = %v (%#x), want %v (%#x)", tc.name, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
		if !math.IsInf(tc.want, 0) {
			if ref := bigRound(tc.vals, nil); !sameBits(ref, tc.want) {
				t.Errorf("%s: math/big says %v, the case says %v", tc.name, ref, tc.want)
			}
		}
	}
}

func TestExactSumNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"+Inf", []float64{1, inf, -1e308}, inf},
		{"-Inf", []float64{-inf, 5}, -inf},
		{"Inf-Inf", []float64{inf, 3, -inf}, nan},
		{"NaN", []float64{1, nan}, nan},
		{"NaN beats Inf", []float64{inf, nan}, nan},
		{"Inf beats a finite overflow", []float64{math.MaxFloat64, math.MaxFloat64, -inf}, -inf},
	}
	for _, tc := range cases {
		var s, merged ExactSum
		for i, v := range tc.vals {
			s.Add(v)
			var one ExactSum
			one.Add(v)
			if i%2 == 0 {
				merged.Merge(&one)
			} else {
				one.Merge(&merged)
				merged = one
			}
		}
		if got := s.Round(); !sameBits(got, tc.want) {
			t.Errorf("%s: Round = %v, want %v", tc.name, got, tc.want)
		}
		if got := merged.Round(); !sameBits(got, tc.want) {
			t.Errorf("%s: merged Round = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestExactSumAddIntExact(t *testing.T) {
	ints := []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, 1, -(1 << 53) - 1, 7}
	var s ExactSum
	for _, k := range ints {
		s.AddInt(k)
	}
	if got, want := s.Round(), bigRound(nil, ints); got != want {
		t.Fatalf("AddInt sum = %v, math/big = %v", got, want)
	}
	var z ExactSum
	z.AddInt(math.MinInt64)
	z.AddInt(math.MinInt64)
	if got := z.Round(); got != -math.Ldexp(1, 64) {
		t.Fatalf("2·MinInt64 = %v", got)
	}
}

// TestExactSumAllocatesNothing pins the accumulator as a value type: no
// Add, Merge or Round allocates.
func TestExactSumAllocatesNothing(t *testing.T) {
	var s, o ExactSum
	o.Add(3.25)
	allocs := testing.AllocsPerRun(100, func() {
		s.Add(1.5)
		s.AddInt(7)
		s.Merge(&o)
		sinkF = s.Round()
	})
	if allocs != 0 {
		t.Fatalf("ExactSum allocates %v times per Add/AddInt/Merge/Round", allocs)
	}
}
