package storage

import (
	"fmt"
	"testing"
)

// Paired scalar-vs-SIMD benchmarks: the same dispatched entry points as
// the tracked kernel benchmarks, once with the SIMD flags forced off and
// once forced on, so BENCH_kernels.json carries an explicit speedup pair
// per kernel on hosts that have the assembly. On builds without SIMD
// (purego, -race, no AVX2) the simd variants are skipped rather than
// silently measuring the scalar path twice.

func benchPair(b *testing.B, run func(b *testing.B)) {
	b.Run("scalar", func(b *testing.B) {
		restore := setSIMD(false)
		defer restore()
		run(b)
	})
	b.Run("simd", func(b *testing.B) {
		if !simdAvailable() {
			b.Skip("no SIMD kernels in this build/host")
		}
		restore := setSIMD(true)
		defer restore()
		run(b)
	})
}

func BenchmarkSIMDSumRangeInt64(b *testing.B) {
	c := benchIntCol()
	benchPair(b, func(b *testing.B) {
		b.SetBytes(benchRows * 8)
		for i := 0; i < b.N; i++ {
			sinkI, _, _ = c.SumRangeInt64(0, benchRows)
		}
	})
}

func BenchmarkSIMDMinMaxRange(b *testing.B) {
	for _, typ := range []string{"int64", "float64"} {
		c := benchCols()[typ]
		b.Run(typ, func(b *testing.B) {
			benchPair(b, func(b *testing.B) {
				b.SetBytes(benchRows * 8)
				for i := 0; i < b.N; i++ {
					sinkF, sinkF2, _ = c.MinMaxRange(0, benchRows)
				}
			})
		})
	}
}

// BenchmarkSIMDFusedBlocked pairs the blocked scans with assembly behind
// them at the served chunk width, where a 1024-value chunk amortizes the
// SIMD call less than a whole-column sweep would: the int64 masked loops,
// the float64 sum (the masked extraction window), and the string count
// over the bench column's 100 keys, whose pass table folds into the
// bitmap kernel's register.
func BenchmarkSIMDFusedBlocked(b *testing.B) {
	ic := benchIntCol()
	operand := fusedBenchOperand("int64", selectivities[1]) // sel50
	for _, mode := range []FusedMode{FusedCount, FusedSum, FusedMin, FusedMax} {
		for _, span := range benchSpans {
			b.Run(fmt.Sprintf("int64/%s/sel50/span%d", fusedModeLabels[mode], span), func(b *testing.B) {
				benchPair(b, func(b *testing.B) { benchFusedBlocked(b, ic, span, operand, mode) })
			})
		}
	}
	fc := benchFloatCol()
	for _, sel := range selectivities {
		operand := fusedBenchOperand("float64", sel)
		for _, span := range benchSpans {
			b.Run(fmt.Sprintf("float64/sum/%s/span%d", sel.label, span), func(b *testing.B) {
				benchPair(b, func(b *testing.B) { benchFusedBlocked(b, fc, span, operand, FusedSum) })
			})
		}
	}
	sc := benchStringCol()
	operand = fusedBenchOperand("string", selectivities[1])
	for _, span := range benchSpans {
		b.Run(fmt.Sprintf("string/count/sel50/span%d", span), func(b *testing.B) {
			benchPair(b, func(b *testing.B) { benchFusedBlocked(b, sc, span, operand, FusedCount) })
		})
	}
}

func BenchmarkSIMDFilterRange(b *testing.B) {
	for _, typ := range []string{"int64", "float64"} {
		c := benchCols()[typ]
		for _, sel := range selectivities {
			b.Run(typ+"/"+sel.label, func(b *testing.B) {
				benchPair(b, func(b *testing.B) {
					b.SetBytes(benchRows * 8)
					var out []int32
					for i := 0; i < b.N; i++ {
						out = c.FilterRange(0, benchRows, RangeLt, IntValue(sel.operand), out[:0])
					}
					sinkN = len(out)
				})
			})
		}
	}
}
