package storage

import "math"

// Fused filter+aggregate kernels: when a WHERE-restricted slide only
// feeds a running aggregate, materializing the qualifying positions is
// pure overhead — the selection vector is written by one kernel, read
// once by the next, and thrown away. The two exported scans,
// FilterAggRangeBlocked and FilterAggSelBlocked (what
// operator.FuseFilterAgg calls), lower the predicate once and run the
// FusedMode-specialized chunk loops below, which classify and
// aggregate in a single pass over the native backing slice with the same
// branch-free predicate masks as FilterRange, turning the qualifying test
// into integer mask arithmetic: sum += v&m, count += pass, and min/max
// select through sentinel values, so the inner loop carries no
// data-dependent branch on integer-backed columns.
//
// Float columns keep a branchy accumulate (a masked float add would turn
// -0.0, NaN and Inf non-qualifiers into sum perturbations) with a single
// accumulator in strict left-to-right order over the qualifying values —
// the same order a scalar filter-then-add loop produces within one
// kernel call. Chunked (blocked) scans merge chunk partials in chunk
// order, which reassociates float addition; the pipeline therefore
// routes float sum/avg slides through the unfused path (see
// core.Object.trySlideFused) and fuses floats only for the exact
// min/max/count kinds.

// FilterAgg is the result of one fused filter+aggregate scan: the count,
// sum, minimum and maximum of the qualifying values. With no qualifiers
// Min/Max are +Inf/-Inf and Sum is 0, matching MinMaxRange on an empty
// range. Integer-backed columns report Exact=true and carry the exact
// int64 sum in IntSum (Sum mirrors it in float64); merging exact chunks
// stays exact, so a scan split into cost-model blocks loses nothing.
type FilterAgg struct {
	// N counts qualifying values.
	N int
	// Sum is the float sum of qualifying values (exactly float64(IntSum)
	// when Exact).
	Sum float64
	// IntSum is the exact integer sum for integer-backed columns
	// (overflow wraps, like any int64 sum).
	IntSum int64
	// Exact reports that IntSum is authoritative.
	Exact bool
	// Min and Max are the extrema of qualifying values (+Inf/-Inf when
	// N == 0); NaN qualifiers are skipped, matching a scalar
	// `if v < min` loop.
	Min, Max float64
}

// emptyFilterAgg is the zero-qualifier result.
func emptyFilterAgg() FilterAgg {
	return FilterAgg{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Merge folds b — a later chunk of the same scan — into a, preserving
// chunk order for float sums and exactness for integer sums.
func (a *FilterAgg) Merge(b FilterAgg) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	a.N += b.N
	if a.Exact && b.Exact {
		a.IntSum += b.IntSum
		a.Sum = float64(a.IntSum)
	} else {
		a.Exact = false
		a.Sum += b.Sum
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// filterAggInt is the shared masked-accumulation core over int64 values
// with a pre-decomposed predicate.
type filterAggInt struct {
	cnt  int
	isum int64
	mn   int64
	mx   int64
}

func newFilterAggInt() filterAggInt {
	return filterAggInt{mn: math.MaxInt64, mx: math.MinInt64}
}

// absorb folds value v with pass mask p (0 or 1) — no branches: the
// sentinel select keeps mn/mx untouched on a fail.
func (f *filterAggInt) absorb(v int64, p int) {
	m := int64(-p) // 0 or -1
	f.cnt += p
	f.isum += v & m
	f.mn = min(f.mn, v&m|(math.MaxInt64&^m))
	f.mx = max(f.mx, v&m|(math.MinInt64&^m))
}

func (f filterAggInt) result() FilterAgg {
	agg := FilterAgg{N: f.cnt, IntSum: f.isum, Sum: float64(f.isum), Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
	if f.cnt > 0 {
		agg.Min, agg.Max = float64(f.mn), float64(f.mx)
	}
	return agg
}

// sumMaskedLe counts and sums values v <= bound — the single-compare
// masked loop, unrolled with independent accumulator pairs so the adds
// overlap in the pipeline (the hottest fused inner loop).
func sumMaskedLe(vals []int64, bound int64) (cnt int, isum int64) {
	var c0, c1, c2, c3 int
	var s0, s1, s2, s3 int64
	v := vals
	for len(v) >= 4 {
		p0 := b2i(v[0] <= bound)
		c0 += p0
		s0 += v[0] & int64(-p0)
		p1 := b2i(v[1] <= bound)
		c1 += p1
		s1 += v[1] & int64(-p1)
		p2 := b2i(v[2] <= bound)
		c2 += p2
		s2 += v[2] & int64(-p2)
		p3 := b2i(v[3] <= bound)
		c3 += p3
		s3 += v[3] & int64(-p3)
		v = v[4:]
	}
	for _, x := range v {
		p := b2i(x <= bound)
		c0 += p
		s0 += x & int64(-p)
	}
	return c0 + c1 + c2 + c3, s0 + s1 + s2 + s3
}

// sumMaskedGe counts and sums values v >= bound.
func sumMaskedGe(vals []int64, bound int64) (cnt int, isum int64) {
	var c0, c1, c2, c3 int
	var s0, s1, s2, s3 int64
	v := vals
	for len(v) >= 4 {
		p0 := b2i(v[0] >= bound)
		c0 += p0
		s0 += v[0] & int64(-p0)
		p1 := b2i(v[1] >= bound)
		c1 += p1
		s1 += v[1] & int64(-p1)
		p2 := b2i(v[2] >= bound)
		c2 += p2
		s2 += v[2] & int64(-p2)
		p3 := b2i(v[3] >= bound)
		c3 += p3
		s3 += v[3] & int64(-p3)
		v = v[4:]
	}
	for _, x := range v {
		p := b2i(x >= bound)
		c0 += p
		s0 += x & int64(-p)
	}
	return c0 + c1 + c2 + c3, s0 + s1 + s2 + s3
}

// filterSumInt64 is the lowered-predicate fused filter+sum core: the
// SIMD kernel when the build+host provides one (the interval compare
// covers every predicate shape), else the shape-specialized scalar loops
// — single-compare masked sums for the one-sided operators, the
// two-compare interval test only for Eq/Ne.
func filterSumInt64(vals []int64, p intPred) (cnt int, isum int64) {
	if simdFilterSum && len(vals) >= simdMinSpan {
		return simdFilterSumInt64(vals, p)
	}
	switch {
	case p.neg == 0 && p.lo == math.MinInt64:
		return sumMaskedLe(vals, p.hi)
	case p.neg == 0 && p.hi == math.MaxInt64:
		return sumMaskedGe(vals, p.lo)
	default:
		for _, v := range vals {
			q := p.test(v)
			cnt += q
			isum += v & int64(-q)
		}
		return cnt, isum
	}
}

// filterAggInt64 is the lowered-predicate full filter+aggregate core:
// the SIMD kernel when available, else the scalar masked-absorb loop.
func filterAggInt64(vals []int64, p intPred) filterAggInt {
	if simdFilterAgg && len(vals) >= simdMinSpan {
		return simdFilterAggInt64(vals, p)
	}
	f := newFilterAggInt()
	for _, v := range vals {
		f.absorb(v, p.test(v))
	}
	return f
}

// FusedMode selects what a blocked fused scan maintains — the storage
// mirror of the aggregate kinds the fusion dispatch serves.
type FusedMode uint8

// Blocked fused scan modes.
const (
	// FusedCount maintains only the qualifying count.
	FusedCount FusedMode = iota
	// FusedSum maintains count and sum (extrema come back ±Inf).
	FusedSum
	// FusedMinMax maintains count and extrema (sum comes back 0).
	FusedMinMax
	// FusedFull maintains count, sum and extrema.
	FusedFull
)

// preparedPred is per-scan predicate state lowered exactly once: the
// integer bounds for int columns, the wants masks for float columns, the
// two-outcome table for bools, and the memoized per-code table for
// strings. Blocked scans prepare it up front so per-chunk work is only
// the inner loop.
type preparedPred struct {
	// Int64 columns.
	ip        intPred
	none, all bool
	// Float64 columns.
	b             float64
	wLt, wGt, wEq int
	// Bool columns.
	tab [2]int
	// String columns.
	pass []bool
}

// preparePred lowers the predicate for this column's type.
func (c *Column) preparePred(op RangeOp, operand Value) preparedPred {
	var pp preparedPred
	switch c.typ {
	case String:
		pp.pass = c.passByCode(op, operand)
	case Int64:
		pp.ip, pp.none, pp.all = intPredFor(op, operand.AsFloat())
	case Float64:
		pp.b = operand.AsFloat()
		pp.wLt, pp.wGt, pp.wEq = op.wants()
	case Bool:
		b := operand.AsFloat()
		wLt, wGt, wEq := op.wants()
		pp.tab[0] = passFloat(0, b, wLt, wGt, wEq)
		pp.tab[1] = passFloat(1, b, wLt, wGt, wEq)
	}
	return pp
}

// fusedChunk runs one prepared chunk [lo, hi) (already clamped).
func (c *Column) fusedChunk(pp *preparedPred, lo, hi int, mode FusedMode) FilterAgg {
	c.countSpan(lo, hi)
	switch c.typ {
	case Int64:
		vals := c.ints[lo:hi]
		if pp.none {
			return emptyFilterAgg()
		}
		switch mode {
		case FusedSum:
			var cnt int
			var isum int64
			if pp.all {
				cnt, isum = len(vals), sumInt64Kernel(vals)
			} else {
				cnt, isum = filterSumInt64(vals, pp.ip)
			}
			return FilterAgg{N: cnt, IntSum: isum, Sum: float64(isum), Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
		case FusedCount:
			cnt := 0
			switch {
			case pp.all:
				cnt = len(vals)
			case simdFilterSum && len(vals) >= simdMinSpan:
				cnt, _ = simdFilterSumInt64(vals, pp.ip)
			default:
				for _, v := range vals {
					cnt += pp.ip.test(v)
				}
			}
			return FilterAgg{N: cnt, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
		default: // FusedMinMax, FusedFull
			// pp.all lowers to the trivially-true interval, which the
			// shared core handles without a special case.
			f := filterAggInt64(vals, pp.ip)
			fa := f.result()
			if mode == FusedMinMax {
				fa.Sum, fa.IntSum = 0, 0
			}
			return fa
		}
	case Float64:
		agg := emptyFilterAgg()
		for _, v := range c.flts[lo:hi] {
			lt, gt := v < pp.b, v > pp.b
			if (lt && pp.wLt != 0) || (gt && pp.wGt != 0) || (!lt && !gt && pp.wEq != 0) {
				agg.N++
				switch mode {
				case FusedCount:
				case FusedSum:
					agg.Sum += v
				default:
					agg.Sum += v
					if v < agg.Min {
						agg.Min = v
					}
					if v > agg.Max {
						agg.Max = v
					}
				}
			}
		}
		if mode == FusedMinMax {
			agg.Sum = 0
		}
		return agg
	case Bool:
		cnt, ones := 0, 0
		for _, v := range c.bools[lo:hi] {
			q := pp.tab[v&1]
			cnt += q
			ones += q & int(v&1)
		}
		return boolFilterAgg(cnt, ones, mode)
	case String:
		switch mode {
		case FusedCount:
			cnt := 0
			for _, code := range c.codes[lo:hi] {
				cnt += b2i(pp.pass[code])
			}
			return FilterAgg{N: cnt, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
		case FusedSum:
			cnt := 0
			var isum int64
			for _, code := range c.codes[lo:hi] {
				q := b2i(pp.pass[code])
				cnt += q
				isum += int64(code) & int64(-q)
			}
			return FilterAgg{N: cnt, IntSum: isum, Sum: float64(isum), Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
		default:
			f := newFilterAggInt()
			for _, code := range c.codes[lo:hi] {
				f.absorb(int64(code), b2i(pp.pass[code]))
			}
			fa := f.result()
			if mode == FusedMinMax {
				fa.Sum, fa.IntSum = 0, 0
			}
			return fa
		}
	}
	return emptyFilterAgg()
}

// boolFilterAgg assembles a bool-column result from pass counts.
func boolFilterAgg(cnt, ones int, mode FusedMode) FilterAgg {
	agg := FilterAgg{N: cnt, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
	if mode == FusedSum || mode == FusedFull {
		agg.IntSum, agg.Sum = int64(ones), float64(ones)
	}
	if cnt > 0 && (mode == FusedMinMax || mode == FusedFull) {
		agg.Min, agg.Max = 1, 0
		if cnt > ones {
			agg.Min = 0
		}
		if ones > 0 {
			agg.Max = 1
		}
	}
	return agg
}

// FilterAggRangeBlocked runs a fused filter+aggregate scan over [lo, hi)
// in chunks aligned to blockLen boundaries, lowering the predicate once
// for the whole scan and reporting each chunk's qualifying count to
// onBlock (the cost-charging hook: one chunk never crosses a cost-model
// block) before merging. Result-equal to FilterRange followed by a
// scalar aggregation of the selection (asserted by
// TestFusedKernelsMatchCompose); the chunking only exists so callers can
// charge per block without re-deriving the predicate per chunk.
func (c *Column) FilterAggRangeBlocked(lo, hi, blockLen int, op RangeOp, operand Value, mode FusedMode, onBlock func(start, count int)) FilterAgg {
	lo, hi = c.clampRange(lo, hi)
	total := emptyFilterAgg()
	if hi == lo {
		return total
	}
	if blockLen <= 0 {
		blockLen = hi - lo
	}
	pp := c.preparePred(op, operand)
	for cur := lo; cur < hi; {
		end := (cur/blockLen + 1) * blockLen
		if end > hi {
			end = hi
		}
		fa := c.fusedChunk(&pp, cur, end, mode)
		if onBlock != nil && fa.N > 0 {
			onBlock(cur, fa.N)
		}
		total.Merge(fa)
		cur = end
	}
	return total
}

// FilterAggSelBlocked is FilterAggRangeBlocked over a prior selection:
// the ascending selection is segmented at blockLen boundaries, each
// segment's qualifying count goes to onBlock, and the predicate is
// lowered once. Out-of-range positions are skipped, matching FilterSel.
func (c *Column) FilterAggSelBlocked(sel []int32, blockLen int, op RangeOp, operand Value, mode FusedMode, onBlock func(start, count int)) FilterAgg {
	total := emptyFilterAgg()
	if len(sel) == 0 {
		return total
	}
	if blockLen <= 0 {
		blockLen = c.Len() + 1
	}
	pp := c.preparePred(op, operand)
	n := c.Len()
	for i := 0; i < len(sel); {
		b := int(sel[i]) / blockLen
		j := i + 1
		for j < len(sel) && int(sel[j])/blockLen == b {
			j++
		}
		fa := c.fusedSelChunk(&pp, sel[i:j], n, mode)
		if onBlock != nil && fa.N > 0 {
			onBlock(int(sel[i]), fa.N)
		}
		total.Merge(fa)
		i = j
	}
	return total
}

// fusedSelChunk runs one prepared segment of a selection.
func (c *Column) fusedSelChunk(pp *preparedPred, sel []int32, n int, mode FusedMode) FilterAgg {
	c.countSel(len(sel))
	switch c.typ {
	case Int64:
		if pp.none {
			return emptyFilterAgg()
		}
		switch mode {
		case FusedSum, FusedCount:
			cnt := 0
			var isum int64
			for _, p := range sel {
				if p < 0 || int(p) >= n {
					continue
				}
				v := c.ints[p]
				q := pp.ip.test(v)
				cnt += q
				isum += v & int64(-q)
			}
			agg := FilterAgg{N: cnt, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
			if mode == FusedSum {
				agg.IntSum, agg.Sum = isum, float64(isum)
			}
			return agg
		default:
			f := newFilterAggInt()
			for _, p := range sel {
				if p < 0 || int(p) >= n {
					continue
				}
				v := c.ints[p]
				f.absorb(v, pp.ip.test(v))
			}
			fa := f.result()
			if mode == FusedMinMax {
				fa.Sum, fa.IntSum = 0, 0
			}
			return fa
		}
	case Float64:
		agg := emptyFilterAgg()
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			v := c.flts[p]
			lt, gt := v < pp.b, v > pp.b
			if (lt && pp.wLt != 0) || (gt && pp.wGt != 0) || (!lt && !gt && pp.wEq != 0) {
				agg.N++
				if mode != FusedCount {
					agg.Sum += v
				}
				if mode == FusedMinMax || mode == FusedFull {
					if v < agg.Min {
						agg.Min = v
					}
					if v > agg.Max {
						agg.Max = v
					}
				}
			}
		}
		if mode == FusedMinMax {
			agg.Sum = 0
		}
		return agg
	case Bool:
		cnt, ones := 0, 0
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			v := c.bools[p] & 1
			q := pp.tab[v]
			cnt += q
			ones += q & int(v)
		}
		return boolFilterAgg(cnt, ones, mode)
	case String:
		f := newFilterAggInt()
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			code := c.codes[p]
			f.absorb(int64(code), b2i(pp.pass[code]))
		}
		fa := f.result()
		switch mode {
		case FusedCount:
			fa.Sum, fa.IntSum, fa.Min, fa.Max = 0, 0, math.Inf(1), math.Inf(-1)
		case FusedSum:
			fa.Min, fa.Max = math.Inf(1), math.Inf(-1)
		case FusedMinMax:
			fa.Sum, fa.IntSum = 0, 0
		}
		return fa
	}
	return emptyFilterAgg()
}
