package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// Per-kernel microbenchmarks over 1M-row columns — the tracked kernel
// baseline. scripts/bench.sh runs these (plus the end-to-end touch
// benchmarks) and emits BENCH_kernels.json; the CI bench-smoke step
// keeps them compiling. Filter kernels run at 1%, 50% and 99%
// selectivity: 50% is the branch-predictor worst case the branch-free
// inner loops exist for.

const benchRows = 1 << 20

func benchIntCol() *Column {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, benchRows)
	for i := range vals {
		vals[i] = int64(rng.Intn(100))
	}
	return NewIntColumn("v", vals)
}

func benchFloatCol() *Column {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, benchRows)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	return NewFloatColumn("v", vals)
}

func benchBoolCol() *Column {
	rng := rand.New(rand.NewSource(3))
	vals := make([]bool, benchRows)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	return NewBoolColumn("v", vals)
}

func benchStringCol() *Column {
	rng := rand.New(rand.NewSource(4))
	words := make([]string, 100)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	vals := make([]string, benchRows)
	for i := range vals {
		vals[i] = words[rng.Intn(len(words))]
	}
	return NewStringColumn("v", vals)
}

func benchCols() map[string]*Column {
	return map[string]*Column{
		"int64":   benchIntCol(),
		"float64": benchFloatCol(),
		"bool":    benchBoolCol(),
		"string":  benchStringCol(),
	}
}

// selectivity pairs a label with the operand of `v < operand` that
// yields it over values uniform in [0, 100).
type selectivity struct {
	label   string
	operand int64
}

var selectivities = []selectivity{
	{"sel01", 1},
	{"sel50", 50},
	{"sel99", 99},
}

func BenchmarkSumRange(b *testing.B) {
	for name, c := range benchCols() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				var acc ExactSum
				c.SumRange(0, benchRows, &acc)
				sinkF = acc.Round()
			}
		})
	}
}

func BenchmarkSumRangeInt64(b *testing.B) {
	c := benchIntCol()
	b.SetBytes(benchRows * 8)
	for i := 0; i < b.N; i++ {
		sinkI, _, _ = c.SumRangeInt64(0, benchRows)
	}
}

func BenchmarkMinMaxRange(b *testing.B) {
	for name, c := range benchCols() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				sinkF, sinkF2, _ = c.MinMaxRange(0, benchRows)
			}
		})
	}
}

func BenchmarkFilterRange(b *testing.B) {
	for _, typ := range []string{"int64", "float64"} {
		c := benchCols()[typ]
		for _, sel := range selectivities {
			b.Run(typ+"/"+sel.label, func(b *testing.B) {
				b.SetBytes(benchRows * 8)
				var out []int32
				for i := 0; i < b.N; i++ {
					out = c.FilterRange(0, benchRows, RangeLt, IntValue(sel.operand), out[:0])
				}
				sinkN = len(out)
			})
		}
	}
}

// Spans the blocked benchmarks scan: a short slide step, scan_direct's
// median span (bench/'s storage.span_rows_p50) and a full-height sweep.
var benchSpans = []int{4096, 120_000, 1_000_000}

const (
	// benchBlockLen is iomodel's default BlockValues — the chunk width
	// operator.FuseFilterAgg passes for a tracked column.
	benchBlockLen = 1024
	// benchSpanLo starts every span mid-block, as a slide step does, so
	// the first and last chunks are partial.
	benchSpanLo = 500
)

// fusedBenchCases are the (type, mode) pairs core.Object.trySlideFused
// can hand the blocked scan: count, sum/avg and min/max over every type,
// max standing for both (the two kernels are mirror images). Bool and
// string columns run at 50% only: their inner loops are table lookups
// the operand does not change.
var fusedBenchCases = []struct {
	typ   string
	modes []FusedMode
	sels  []selectivity
}{
	{"int64", []FusedMode{FusedCount, FusedSum, FusedMax}, selectivities},
	{"float64", []FusedMode{FusedCount, FusedSum, FusedMax}, selectivities},
	{"bool", []FusedMode{FusedCount, FusedSum, FusedMax}, selectivities[1:2]},
	{"string", []FusedMode{FusedCount, FusedSum, FusedMax}, selectivities[1:2]},
}

var fusedModeLabels = map[FusedMode]string{FusedCount: "count", FusedSum: "sum", FusedMin: "min", FusedMax: "max"}

// fusedBenchOperand is the `v < operand` operand that gives sel on the
// bench column of the given type.
func fusedBenchOperand(typ string, sel selectivity) Value {
	switch typ {
	case "bool":
		return IntValue(1)
	case "string":
		return StringValue(fmt.Sprintf("w%02d", sel.operand))
	default:
		return IntValue(sel.operand)
	}
}

// benchFusedBlocked times one blocked scan shaped like a served fused
// slide: cost-model-sized chunks, their counts in a reused buffer.
func benchFusedBlocked(b *testing.B, c *Column, span int, operand Value, mode FusedMode) {
	b.SetBytes(int64(span) * 8)
	var counts []int32
	var sum ExactSum
	for i := 0; i < b.N; i++ {
		var fa FilterAgg
		fa, counts = c.FilterAggRangeBlocked(benchSpanLo, benchSpanLo+span, benchBlockLen, RangeLt, operand, mode, nil, &sum, counts[:0])
		sinkF = fa.Sum
		sinkN = fa.N + len(counts)
	}
}

// BenchmarkFusedBlocked is the fused path exactly as the touch pipeline
// runs it (operator.FuseFilterAgg → FilterAggRangeBlocked). The
// FilterThen…Compose benchmarks below are the unfused shapes it replaces;
// compare them against the span1000000 rows.
func BenchmarkFusedBlocked(b *testing.B) {
	cols := benchCols()
	for _, bc := range fusedBenchCases {
		c := cols[bc.typ]
		for _, mode := range bc.modes {
			for _, sel := range bc.sels {
				operand := fusedBenchOperand(bc.typ, sel)
				for _, span := range benchSpans {
					name := fmt.Sprintf("%s/%s/%s/span%d", bc.typ, fusedModeLabels[mode], sel.label, span)
					b.Run(name, func(b *testing.B) { benchFusedBlocked(b, c, span, operand, mode) })
				}
			}
		}
	}
}

// benchFusedSelBlocked times one blocked scan over a prior selection.
func benchFusedSelBlocked(b *testing.B, c *Column, base []int32, operand Value) {
	b.SetBytes(int64(len(base)) * 8)
	var counts []int32
	var sum ExactSum
	for i := 0; i < b.N; i++ {
		var fa FilterAgg
		fa, counts = c.FilterAggSelBlocked(base, benchBlockLen, RangeLt, operand, FusedSum, &sum, counts[:0])
		sinkF = fa.Sum
		sinkN = len(counts)
	}
}

// BenchmarkFusedSelBlocked is the multi-conjunct form: the final conjunct
// fused over the survivors of an earlier one (FilterAggSelBlocked) — an
// int64 sum over half the column, and float64 sums over the half of each
// span a `v < 50` conjunct leaves, the final conjunct keeping 1, 50 and
// 99% of those.
func BenchmarkFusedSelBlocked(b *testing.B) {
	ic := benchIntCol()
	b.Run("int64/sum/sel50of50", func(b *testing.B) {
		benchFusedSelBlocked(b, ic, ic.FilterRange(0, benchRows, RangeLt, IntValue(50), nil), IntValue(25))
	})
	fc := benchFloatCol()
	for _, sel := range selectivities {
		operand := FloatValue(float64(sel.operand) / 2)
		for _, span := range benchSpans {
			base := fc.FilterRange(benchSpanLo, benchSpanLo+span, RangeLt, IntValue(50), nil)
			b.Run(fmt.Sprintf("float64/sum/%sof50/span%d", sel.label, span), func(b *testing.B) {
				benchFusedSelBlocked(b, fc, base, operand)
			})
		}
	}
}

// BenchmarkFilterThenSumCompose is the unfused sum reference:
// FilterRange materializes the selection, then a second typed pass sums
// it — the best the storage layer can do without fusion.
func BenchmarkFilterThenSumCompose(b *testing.B) {
	c := benchIntCol()
	for _, sel := range selectivities {
		b.Run("int64/"+sel.label, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			var out []int32
			for i := 0; i < b.N; i++ {
				out = c.FilterRange(0, benchRows, RangeLt, IntValue(sel.operand), out[:0])
				var sum int64
				for _, p := range out {
					sum += c.ints[p]
				}
				sinkF = float64(sum)
				sinkN = len(out)
			}
		})
	}
}

// BenchmarkFilterThenSumRangeOverSel is the unfused pipeline shape the
// fused kernels replace: FilterRange materializes the selection, then
// SumRange absorbs each maximal contiguous run of it (how the span path
// feeds a running aggregate without fusion). At mid selectivities runs
// are short, so the per-run dispatch dominates — exactly the overhead
// fusion removes.
func BenchmarkFilterThenSumRangeOverSel(b *testing.B) {
	c := benchIntCol()
	for _, sel := range selectivities {
		b.Run("int64/"+sel.label, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			var out []int32
			for i := 0; i < b.N; i++ {
				out = c.FilterRange(0, benchRows, RangeLt, IntValue(sel.operand), out[:0])
				var sum ExactSum
				n := 0
				forEachRun(out, func(lo, hi int) {
					n += c.SumRange(lo, hi, &sum)
				})
				sinkF = sum.Round()
				sinkN = n
			}
		})
	}
}

// forEachRun mirrors operator.ForEachRun (storage cannot import operator).
func forEachRun(sel []int32, fn func(lo, hi int)) {
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

// BenchmarkFilterThenAggCompose is the unfused full-aggregate reference:
// FilterRange materializes the selection, then a second pass computes
// sum, count, min and max over it.
func BenchmarkFilterThenAggCompose(b *testing.B) {
	c := benchIntCol()
	for _, sel := range selectivities {
		b.Run("int64/"+sel.label, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			var out []int32
			for i := 0; i < b.N; i++ {
				out = c.FilterRange(0, benchRows, RangeLt, IntValue(sel.operand), out[:0])
				var sum int64
				n := 0
				mn, mx := int64(1<<62), int64(-(1 << 62))
				for _, p := range out {
					v := c.ints[p]
					sum += v
					n++
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
				sinkF = float64(sum)
				sinkN = n
			}
		})
	}
}

var (
	sinkF  float64
	sinkF2 float64
	sinkI  int64
	sinkN  int
)

// BenchmarkExactSum is the scalar twin's inner cost: one ExactSum.Add per
// value (what purego, arm64, -race and a fallen-back window pay per
// qualifier), and the Round a running aggregate pays per answer.
func BenchmarkExactSum(b *testing.B) {
	c := benchFloatCol()
	b.Run("add", func(b *testing.B) {
		b.SetBytes(benchRows * 8)
		for i := 0; i < b.N; i++ {
			var acc ExactSum
			for _, v := range c.flts {
				acc.Add(v)
			}
			sinkF = acc.Round()
		}
	})
	b.Run("round", func(b *testing.B) {
		var acc ExactSum
		for _, v := range c.flts[:1000] {
			acc.Add(v)
		}
		for i := 0; i < b.N; i++ {
			sinkF = acc.Round()
		}
	})
}
