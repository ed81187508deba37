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
// Float columns compact, then reduce: a masked float add would turn
// -0.0, NaN and Inf non-qualifiers into sum perturbations, so each step
// first packs the qualifying positions into a block-sized stack buffer —
// the branch-free compare+compress FilterRange runs, AVX2 where the
// build+host has it — and a tight loop folds them. The scan carries one
// accumulator through every chunk, seeded with the consumer's running sum,
// and adds each qualifier strictly left to right: ((seed + v1) + v2) + …,
// never a per-chunk partial. The result is bit-identical to a scalar
// filter-then-add loop continuing from the seed and independent of the
// chunk width, which is what lets float SUM/AVG slides fuse like every
// other kind.

// FilterAgg is the result of one fused filter+aggregate scan: the count
// and extrema of the qualifying values, and the running sum the scan was
// seeded with after they joined it. With no qualifiers Min/Max are
// +Inf/-Inf and Sum is the seed, matching MinMaxRange on an empty range.
// Integer-backed columns report Exact=true and carry the span's exact
// int64 sum in IntSum, which joins the seed in one addition; merging
// exact chunks stays exact, so a scan split into cost-model blocks loses
// nothing.
type FilterAgg struct {
	// N counts qualifying values.
	N int
	// Sum is the seed plus the qualifying values: added one by one in
	// position order on float columns, as seed + float64(IntSum) when
	// Exact. Modes that do not maintain a sum hand the seed back.
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

// merge folds b — a later chunk of the same integer-backed scan — into a:
// counts and integer sums add exactly, and a tie between extrema keeps
// the earlier chunk's. Sum is settled once, by finish. Float columns have
// nothing to merge — their scans fold every chunk into one accumulator
// (see foldFloats) — because adding chunk partials would reassociate the
// sum.
func (a *FilterAgg) merge(b FilterAgg) {
	a.N += b.N
	a.IntSum += b.IntSum
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
	agg := FilterAgg{N: f.cnt, IntSum: f.isum, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
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

// fusedBufLen is how many rows one compact-then-reduce step of a float
// scan classifies; the position buffer (4 KiB) lives on the scan's stack.
// It equals iomodel's default BlockValues, so a served cost-model block is
// one compaction.
const fusedBufLen = 1024

// foldFloats folds the values at pos — one step's qualifying positions,
// ascending — into agg, each added to the running sum in position order.
func foldFloats(vals []float64, pos []int32, mode FusedMode, agg *FilterAgg) {
	agg.N += len(pos)
	if mode == FusedSum || mode == FusedFull {
		sum := agg.Sum
		for _, p := range pos {
			sum += vals[p]
		}
		agg.Sum = sum
	}
	if mode == FusedMinMax || mode == FusedFull {
		mn, mx := agg.Min, agg.Max
		for _, p := range pos {
			v := vals[p]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		agg.Min, agg.Max = mn, mx
	}
}

// fusedChunk runs one prepared chunk [lo, hi) (already clamped) into
// total and returns how many of its values qualified. Float chunks
// compact the qualifying positions into buf, fusedBufLen rows at a time,
// and fold them straight into total; the other types aggregate the chunk
// on its own and merge exactly.
func (c *Column) fusedChunk(pp *preparedPred, lo, hi int, mode FusedMode, total *FilterAgg, buf *[fusedBufLen]int32) int {
	c.countSpan(lo, hi)
	if c.typ != Float64 {
		fa := c.exactChunk(pp, lo, hi, mode)
		total.merge(fa)
		return fa.N
	}
	before := total.N
	for cur := lo; cur < hi; cur += fusedBufLen {
		end := min(cur+fusedBufLen, hi)
		k := compressFloat64(c.flts[cur:end], pp.b, pp.wLt, pp.wGt, pp.wEq, cur, buf[:])
		foldFloats(c.flts, buf[:k], mode, total)
	}
	return total.N - before
}

// exactChunk aggregates one chunk of an integer-backed column: count,
// IntSum and extrema (Sum is the scan's to settle, see finish).
func (c *Column) exactChunk(pp *preparedPred, lo, hi int, mode FusedMode) FilterAgg {
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
			return FilterAgg{N: cnt, IntSum: isum, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
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
				fa.IntSum = 0
			}
			return fa
		}
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
			return FilterAgg{N: cnt, IntSum: isum, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
		default:
			f := newFilterAggInt()
			for _, code := range c.codes[lo:hi] {
				f.absorb(int64(code), b2i(pp.pass[code]))
			}
			fa := f.result()
			if mode == FusedMinMax {
				fa.IntSum = 0
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
		agg.IntSum = int64(ones)
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

// seeded returns the accumulator a blocked scan over c starts from.
func (c *Column) seeded(seed float64) FilterAgg {
	total := emptyFilterAgg()
	total.Sum = seed
	total.Exact = c.typ != Float64
	return total
}

// finish settles Sum once the last chunk is in: an exact scan's merged
// integer sum joins the seed in one addition (float scans added their
// qualifiers to the seed as they went). Without qualifiers the seed comes
// back untouched, sign of zero included.
func (a *FilterAgg) finish(mode FusedMode) {
	if a.Exact && a.N > 0 && (mode == FusedSum || mode == FusedFull) {
		a.Sum += float64(a.IntSum)
	}
}

// FilterAggRangeBlocked runs a fused filter+aggregate scan over [lo, hi)
// in chunks aligned to blockLen boundaries, lowering the predicate once
// for the whole scan and reporting each chunk's qualifying count to
// onBlock (the cost-charging hook: one chunk never crosses a cost-model
// block). seed is the consumer's running sum, which the result's Sum
// continues (pass 0 for the span's own sum). Result-equal to FilterRange
// followed by a scalar aggregation of the selection starting from seed,
// for any blockLen (asserted by TestFusedKernelsMatchCompose); the
// chunking only exists so callers can charge per block without
// re-deriving the predicate per chunk.
func (c *Column) FilterAggRangeBlocked(lo, hi, blockLen int, op RangeOp, operand Value, mode FusedMode, seed float64, onBlock func(start, count int)) FilterAgg {
	lo, hi = c.clampRange(lo, hi)
	total := c.seeded(seed)
	if hi == lo {
		return total
	}
	if blockLen <= 0 {
		blockLen = hi - lo
	}
	pp := c.preparePred(op, operand)
	var buf [fusedBufLen]int32
	for cur := lo; cur < hi; {
		end := min((cur/blockLen+1)*blockLen, hi)
		if k := c.fusedChunk(&pp, cur, end, mode, &total, &buf); onBlock != nil && k > 0 {
			onBlock(cur, k)
		}
		cur = end
	}
	total.finish(mode)
	return total
}

// FilterAggSelBlocked is FilterAggRangeBlocked over a prior selection:
// the ascending selection is segmented at blockLen boundaries, each
// segment's qualifying count goes to onBlock, and the predicate is
// lowered once. Out-of-range positions are skipped, matching FilterSel.
func (c *Column) FilterAggSelBlocked(sel []int32, blockLen int, op RangeOp, operand Value, mode FusedMode, seed float64, onBlock func(start, count int)) FilterAgg {
	total := c.seeded(seed)
	if len(sel) == 0 {
		return total
	}
	if blockLen <= 0 {
		blockLen = c.Len() + 1
	}
	pp := c.preparePred(op, operand)
	var buf [fusedBufLen]int32
	for i := 0; i < len(sel); {
		end := (int(sel[i])/blockLen + 1) * blockLen
		j := i + 1
		for j < len(sel) && int(sel[j]) < end {
			j++
		}
		if k := c.fusedSelChunk(&pp, sel[i:j], mode, &total, &buf); onBlock != nil && k > 0 {
			onBlock(int(sel[i]), k)
		}
		i = j
	}
	total.finish(mode)
	return total
}

// fusedSelChunk runs one prepared segment of a selection into total and
// returns how many of its rows qualified — fusedChunk's selection form.
func (c *Column) fusedSelChunk(pp *preparedPred, sel []int32, mode FusedMode, total *FilterAgg, buf *[fusedBufLen]int32) int {
	c.countSel(len(sel))
	n := c.Len()
	if c.typ != Float64 {
		fa := c.exactSelChunk(pp, sel, n, mode)
		total.merge(fa)
		return fa.N
	}
	before := total.N
	for len(sel) > 0 {
		step := sel[:min(len(sel), fusedBufLen)]
		k := 0
		for _, p := range step {
			if p < 0 || int(p) >= n {
				continue
			}
			buf[k] = p
			k += passFloat(c.flts[p], pp.b, pp.wLt, pp.wGt, pp.wEq)
		}
		foldFloats(c.flts, buf[:k], mode, total)
		sel = sel[len(step):]
	}
	return total.N - before
}

// exactSelChunk aggregates one selection segment of an integer-backed
// column.
func (c *Column) exactSelChunk(pp *preparedPred, sel []int32, n int, mode FusedMode) FilterAgg {
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
				agg.IntSum = isum
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
				fa.IntSum = 0
			}
			return fa
		}
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
			fa.IntSum, fa.Min, fa.Max = 0, math.Inf(1), math.Inf(-1)
		case FusedSum:
			fa.Min, fa.Max = math.Inf(1), math.Inf(-1)
		case FusedMinMax:
			fa.IntSum = 0
		}
		return fa
	}
	return emptyFilterAgg()
}
