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
	f.cnt += p
	f.isum += v & int64(-p)
	f.mn = passMin(f.mn, v, p)
	f.mx = passMax(f.mx, v, p)
}

// passMin folds v into mn when pass q is 1: on a fail the MaxInt64
// sentinel stands in for v, so the select carries no branch.
func passMin(mn, v int64, q int) int64 {
	m := int64(-q)
	return min(mn, v&m|(math.MaxInt64&^m))
}

// passMax folds v into mx when pass q is 1, through the MinInt64
// sentinel.
func passMax(mx, v int64, q int) int64 {
	m := int64(-q)
	return max(mx, v&m|(math.MinInt64&^m))
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

// filterMinInt64 counts the values passing p and keeps their minimum
// (MaxInt64 when none pass) — the MIN slide's core, which maintains
// nothing else: the SIMD kernel when available, else minPassing.
func filterMinInt64(vals []int64, p intPred) (cnt int, mn int64) {
	if simdFilterMinMax && len(vals) >= simdMinSpan {
		return simdFilterMinInt64(vals, p)
	}
	return minPassing(vals, p)
}

// filterMaxInt64 is filterMinInt64 for MAX (MinInt64 when none pass).
func filterMaxInt64(vals []int64, p intPred) (cnt int, mx int64) {
	if simdFilterMinMax && len(vals) >= simdMinSpan {
		return simdFilterMaxInt64(vals, p)
	}
	return maxPassing(vals, p)
}

// minPassing is the scalar count+minimum loop.
func minPassing(vals []int64, p intPred) (cnt int, mn int64) {
	mn = math.MaxInt64
	for _, v := range vals {
		q := p.test(v)
		cnt += q
		mn = passMin(mn, v, q)
	}
	return cnt, mn
}

// maxPassing is the scalar count+maximum loop.
func maxPassing(vals []int64, p intPred) (cnt int, mx int64) {
	mx = math.MinInt64
	for _, v := range vals {
		q := p.test(v)
		cnt += q
		mx = passMax(mx, v, q)
	}
	return cnt, mx
}

// countPassing counts the dictionary codes whose pass entry is set —
// the string COUNT slide's loop, unrolled with independent accumulators
// like sumMaskedLe so the table lookups overlap.
func countPassing(codes []int32, pass []bool) int {
	var c0, c1, c2, c3 int
	v := codes
	for len(v) >= 4 {
		c0 += b2i(pass[v[0]])
		c1 += b2i(pass[v[1]])
		c2 += b2i(pass[v[2]])
		c3 += b2i(pass[v[3]])
		v = v[4:]
	}
	for _, code := range v {
		c0 += b2i(pass[code])
	}
	return c0 + c1 + c2 + c3
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
	// FusedMin maintains count and minimum (sum comes back 0, Max -Inf).
	FusedMin
	// FusedMax maintains count and maximum (sum comes back 0, Min +Inf).
	FusedMax
	// FusedFull maintains count, sum and extrema. No aggregate kind asks
	// for it; it runs the scalar loops only.
	FusedFull
)

// keepsSum, keepsMin and keepsMax report what a mode maintains.
func (m FusedMode) keepsSum() bool { return m == FusedSum || m == FusedFull }
func (m FusedMode) keepsMin() bool { return m == FusedMin || m == FusedFull }
func (m FusedMode) keepsMax() bool { return m == FusedMax || m == FusedFull }

// only drops from a what mode does not maintain: the integer sum back to
// 0, an unkept extremum back to ±Inf.
func (a FilterAgg) only(mode FusedMode) FilterAgg {
	if !mode.keepsSum() {
		a.IntSum = 0
	}
	if !mode.keepsMin() {
		a.Min = math.Inf(1)
	}
	if !mode.keepsMax() {
		a.Max = math.Inf(-1)
	}
	return a
}

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
	if mode.keepsSum() {
		sum := agg.Sum
		for _, p := range pos {
			sum += vals[p]
		}
		agg.Sum = sum
	}
	if mode.keepsMin() {
		mn := agg.Min
		for _, p := range pos {
			if v := vals[p]; v < mn {
				mn = v
			}
		}
		agg.Min = mn
	}
	if mode.keepsMax() {
		mx := agg.Max
		for _, p := range pos {
			if v := vals[p]; v > mx {
				mx = v
			}
		}
		agg.Max = mx
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
		// pp.all lowers to the trivially-true interval, which the
		// extremum loops handle without a special case.
		case FusedMin:
			cnt, mn := filterMinInt64(vals, pp.ip)
			return extremumAgg(cnt, mn, mode)
		case FusedMax:
			cnt, mx := filterMaxInt64(vals, pp.ip)
			return extremumAgg(cnt, mx, mode)
		default: // FusedFull
			f := newFilterAggInt()
			for _, v := range vals {
				f.absorb(v, pp.ip.test(v))
			}
			return f.result()
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
			return FilterAgg{N: countPassing(c.codes[lo:hi], pp.pass), Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
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
			return f.result().only(mode)
		}
	}
	return emptyFilterAgg()
}

// extremumAgg assembles a FusedMin or FusedMax chunk result from the
// qualifying count and the one extremum the mode keeps.
func extremumAgg(cnt int, ext int64, mode FusedMode) FilterAgg {
	agg := FilterAgg{N: cnt, Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
	if cnt > 0 {
		if mode == FusedMin {
			agg.Min = float64(ext)
		} else {
			agg.Max = float64(ext)
		}
	}
	return agg
}

// boolFilterAgg assembles a bool-column result from pass counts.
func boolFilterAgg(cnt, ones int, mode FusedMode) FilterAgg {
	agg := FilterAgg{N: cnt, IntSum: int64(ones), Exact: true, Min: math.Inf(1), Max: math.Inf(-1)}
	if cnt > 0 {
		agg.Min, agg.Max = 1, 0
		if cnt > ones {
			agg.Min = 0
		}
		if ones > 0 {
			agg.Max = 1
		}
	}
	return agg.only(mode)
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
	if a.Exact && a.N > 0 && mode.keepsSum() {
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
			return f.result().only(mode)
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
		return f.result().only(mode)
	}
	return emptyFilterAgg()
}
