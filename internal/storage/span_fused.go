package storage

import (
	"math"
	"slices"
)

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
// Every sum a scan computes is exact: integer-backed chunks sum in int64
// and that sum joins an ExactSum, and float qualifiers join it too, so
// the result does not depend on the chunking, the lane split or the
// order of the rows — which is what lets the float SUM scan run as one
// vector pass (sumWindow). The scans add that sum straight into the
// caller's ExactSum (a running aggregate's own, as Column.SumRange does
// for unfiltered spans) and return only the count and extrema, so a
// slide step neither copies nor merges nor rounds a sum of its own.
// Float COUNT, MIN and MAX compact first, then reduce: a masked min/max
// would turn -0.0 and NaN non-qualifiers into candidates, so each step
// packs the qualifying positions into a block-sized stack buffer — the
// branch-free compare+compress FilterRange runs, AVX2 where the
// build+host has it — and a tight loop folds them.

// FilterAgg is the result of one fused filter+aggregate scan: the count
// and extrema of the qualifying values. With no qualifiers Min/Max are
// +Inf/-Inf, matching MinMaxRange on an empty range.
type FilterAgg struct {
	// N counts qualifying values.
	N int
	// Sum is the qualifiers' sum rounded once. The storage scans leave
	// it 0 — they add the exact sum into the caller's ExactSum — and
	// only operator.FuseFilterAgg, which owns the whole sum, fills it.
	Sum float64
	// Min and Max are the extrema of qualifying values (+Inf/-Inf when
	// N == 0); NaN qualifiers are skipped, matching a scalar
	// `if v < min` loop.
	Min, Max float64
}

// fusedAcc is a blocked scan's running state: the FilterAgg it returns,
// an integer-backed scan's wrapping int64 sum — which joins sum once the
// scan ends: wrapping addition is associative, so the result is the same
// at any chunking — and the caller's exact sum, which float qualifiers
// join as their windows are read.
type fusedAcc struct {
	FilterAgg
	isum int64
	sum  *ExactSum
}

// chunkAgg is one chunk of an integer-backed scan: its qualifying count,
// their wrapping int64 sum and their extrema.
type chunkAgg struct {
	n        int
	isum     int64
	min, max float64
}

// emptyChunk is the zero-qualifier chunk.
func emptyChunk() chunkAgg {
	return chunkAgg{min: math.Inf(1), max: math.Inf(-1)}
}

// absorb folds a chunk of the same scan into a: counts and integer sums
// add, and a tie between extrema keeps the earlier chunk's.
func (a *fusedAcc) absorb(ca chunkAgg) {
	a.N += ca.n
	a.isum += ca.isum
	if ca.min < a.Min {
		a.Min = ca.min
	}
	if ca.max > a.Max {
		a.Max = ca.max
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

func (f filterAggInt) result() chunkAgg {
	ca := chunkAgg{n: f.cnt, isum: f.isum, min: math.Inf(1), max: math.Inf(-1)}
	if f.cnt > 0 {
		ca.min, ca.max = float64(f.mn), float64(f.mx)
	}
	return ca
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
// the string COUNT slide's loop where there is no AVX2 kernel (or the
// dictionary is past maskCodes), unrolled with independent accumulators
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

// maskCodes is the most dictionary codes a folded pass bitmap covers:
// 256 bits, one AVX2 register.
const maskCodes = 256

// foldPass folds a pass table of at most maskCodes entries into the
// bitmap avxCountCodes tests: bit c&31 of word c>>5 is pass[c].
func foldPass(pass []bool) (m [8]uint32) {
	for c, ok := range pass {
		if ok {
			m[c>>5] |= 1 << (c & 31)
		}
	}
	return m
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
)

// only drops from a what mode does not maintain: the integer sum back to
// 0, an unkept extremum back to ±Inf.
func (a chunkAgg) only(mode FusedMode) chunkAgg {
	if mode != FusedSum {
		a.isum = 0
	}
	if mode != FusedMin {
		a.min = math.Inf(1)
	}
	if mode != FusedMax {
		a.max = math.Inf(-1)
	}
	return a
}

// preparedPred is per-scan predicate state lowered exactly once: the
// integer bounds for int columns, the operator and wants masks for float
// columns, the two-outcome table for bools, and the memoized per-code
// table for strings — folded into a bitmap too when the count kernel can
// use it. Blocked scans prepare it up front so per-chunk work is only the
// inner loop.
type preparedPred struct {
	// Int64 columns.
	ip        intPred
	none, all bool
	// Float64 columns.
	op            RangeOp
	b             float64
	wLt, wGt, wEq int
	// Bool columns.
	tab [2]int
	// String columns: mask is pass folded by foldPass, set (masked)
	// only where simdCountCodes can run and the dictionary has at most
	// maskCodes entries.
	pass   []bool
	mask   [8]uint32
	masked bool
}

// preparePred lowers the predicate for this column's type.
func (c *Column) preparePred(op RangeOp, operand Value) preparedPred {
	var pp preparedPred
	switch c.typ {
	case String:
		pp.pass = c.passByCode(op, operand)
		if simdCountCodes && len(pp.pass) <= maskCodes {
			pp.mask, pp.masked = foldPass(pp.pass), true
		}
	case Int64:
		pp.ip, pp.none, pp.all = intPredFor(op, operand.AsFloat())
	case Float64:
		pp.op, pp.b = op, operand.AsFloat()
		pp.wLt, pp.wGt, pp.wEq = op.wants()
	case Bool:
		b := operand.AsFloat()
		wLt, wGt, wEq := op.wants()
		pp.tab[0] = passFloat(0, b, wLt, wGt, wEq)
		pp.tab[1] = passFloat(1, b, wLt, wGt, wEq)
	}
	return pp
}

// fusedBufLen is how many rows one window of a float scan covers: the
// position buffer (4 KiB) of a compact-then-reduce step lives on the
// scan's stack, and a SUM window's vector extraction stays exact up to
// this many rows. It equals iomodel's default BlockValues, so a served
// cost-model block is one window.
const fusedBufLen = 1024

// floatScan is the per-scan state of a float column: the compaction
// buffer, and the exponent bound the SUM windows carry from one to the
// next (see simdSumWindow), first guessed from the operand.
type floatScan struct {
	buf [fusedBufLen]int32
	exp int
}

const (
	// maxSumExp keeps σ1 = 2^(e+10) finite.
	maxSumExp = 1013
	// minSumExp keeps σ2 = 2^(e-33) and its quantum 2^(e-86) normal.
	minSumExp = -960
)

// sumExpFor is the least bound e with mx < 2^e, clamped to
// [minSumExp, maxSumExp]: at the top clamp mx may reach 2^e, which the
// window then reports.
func sumExpFor(mx float64) int {
	_, e := math.Frexp(mx)
	return min(max(e, minSumExp), maxSumExp)
}

// foldFloats folds the extrema of the values at pos — one step's
// qualifying positions — into agg, as mode asks.
func foldFloats(vals []float64, pos []int32, mode FusedMode, agg *fusedAcc) {
	switch mode {
	case FusedMin:
		mn := agg.Min
		for _, p := range pos {
			if v := vals[p]; v < mn {
				mn = v
			}
		}
		agg.Min = mn
	case FusedMax:
		mx := agg.Max
		for _, p := range pos {
			if v := vals[p]; v > mx {
				mx = v
			}
		}
		agg.Max = mx
	}
}

// allPass is the predicate every value passes, NaN included (x >= -Inf
// under passFloat's rule): SumRange sums through the SUM windows with it.
var allPass = preparedPred{op: RangeGe, b: math.Inf(-1), wGt: 1, wEq: 1}

// sumWindow adds the values of v — one window, at most fusedBufLen of
// them — that pass pp to acc exactly and reports how many passed. Where
// the build+host has AVX2 the window is one masked extraction pass with
// no compaction; a window the extraction cannot hold exactly (see
// simdSumWindow), and every window elsewhere, compacts and adds the
// qualifiers one by one — the same exact sum either way.
func (sc *floatScan) sumWindow(v []float64, pp *preparedPred, acc *ExactSum) int {
	if simdFloatSum && len(v) >= simdMinSpan {
		if n, ok := simdSumWindow(v, pp, acc, &sc.exp); ok {
			return n
		}
	}
	k := compressFloat64(v, pp.b, pp.wLt, pp.wGt, pp.wEq, 0, sc.buf[:])
	for _, p := range sc.buf[:k] {
		acc.Add(v[p])
	}
	return k
}

// fusedChunk runs one prepared chunk [lo, hi) (already clamped) into
// total and returns how many of its values qualified. Float chunks go
// window by window: SUM through sumWindow, the other modes by compacting
// the qualifying positions into the scan's buffer and folding them.
// The other types aggregate the chunk on its own and absorb it exactly.
func (c *Column) fusedChunk(pp *preparedPred, lo, hi int, mode FusedMode, total *fusedAcc, sc *floatScan) int {
	if c.typ != Float64 {
		ca := c.exactChunk(pp, lo, hi, mode)
		total.absorb(ca)
		return ca.n
	}
	n := 0
	for cur := lo; cur < hi; cur += fusedBufLen {
		end := min(cur+fusedBufLen, hi)
		if mode == FusedSum {
			n += sc.sumWindow(c.flts[cur:end], pp, total.sum)
			continue
		}
		k := compressFloat64(c.flts[cur:end], pp.b, pp.wLt, pp.wGt, pp.wEq, cur, sc.buf[:])
		foldFloats(c.flts, sc.buf[:k], mode, total)
		n += k
	}
	total.N += n
	return n
}

// exactChunk aggregates one chunk of an integer-backed column: count,
// wrapping int64 sum and extrema, as far as mode keeps them.
func (c *Column) exactChunk(pp *preparedPred, lo, hi int, mode FusedMode) chunkAgg {
	switch c.typ {
	case Int64:
		vals := c.ints[lo:hi]
		if pp.none {
			return emptyChunk()
		}
		switch mode {
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
			return chunkAgg{n: cnt, min: math.Inf(1), max: math.Inf(-1)}
		// pp.all lowers to the trivially-true interval, which the
		// extremum loops handle without a special case.
		case FusedMin:
			cnt, mn := filterMinInt64(vals, pp.ip)
			return extremumChunk(cnt, mn, mode)
		case FusedMax:
			cnt, mx := filterMaxInt64(vals, pp.ip)
			return extremumChunk(cnt, mx, mode)
		default: // FusedSum
			var cnt int
			var isum int64
			if pp.all {
				cnt, isum = len(vals), sumInt64Kernel(vals)
			} else {
				cnt, isum = filterSumInt64(vals, pp.ip)
			}
			return chunkAgg{n: cnt, isum: isum, min: math.Inf(1), max: math.Inf(-1)}
		}
	case Bool:
		cnt, ones := 0, 0
		for _, v := range c.bools[lo:hi] {
			q := pp.tab[v&1]
			cnt += q
			ones += q & int(v&1)
		}
		return boolChunk(cnt, ones, mode)
	case String:
		switch mode {
		case FusedCount:
			codes := c.codes[lo:hi]
			var cnt int
			if simdCountCodes && pp.masked && len(codes) >= simdMinSpan {
				cnt = simdCountPassing(codes, &pp.mask, pp.pass)
			} else {
				cnt = countPassing(codes, pp.pass)
			}
			return chunkAgg{n: cnt, min: math.Inf(1), max: math.Inf(-1)}
		case FusedSum:
			cnt := 0
			var isum int64
			for _, code := range c.codes[lo:hi] {
				q := b2i(pp.pass[code])
				cnt += q
				isum += int64(code) & int64(-q)
			}
			return chunkAgg{n: cnt, isum: isum, min: math.Inf(1), max: math.Inf(-1)}
		default:
			f := newFilterAggInt()
			for _, code := range c.codes[lo:hi] {
				f.absorb(int64(code), b2i(pp.pass[code]))
			}
			return f.result().only(mode)
		}
	}
	return emptyChunk()
}

// extremumChunk assembles a FusedMin or FusedMax chunk from the
// qualifying count and the one extremum the mode keeps.
func extremumChunk(cnt int, ext int64, mode FusedMode) chunkAgg {
	ca := chunkAgg{n: cnt, min: math.Inf(1), max: math.Inf(-1)}
	if cnt > 0 {
		if mode == FusedMin {
			ca.min = float64(ext)
		} else {
			ca.max = float64(ext)
		}
	}
	return ca
}

// boolChunk assembles a bool-column chunk from pass counts.
func boolChunk(cnt, ones int, mode FusedMode) chunkAgg {
	ca := chunkAgg{n: cnt, isum: int64(ones), min: math.Inf(1), max: math.Inf(-1)}
	if cnt > 0 {
		ca.min, ca.max = 1, 0
		if cnt > ones {
			ca.min = 0
		}
		if ones > 0 {
			ca.max = 1
		}
	}
	return ca.only(mode)
}

// newFusedAcc is a scan's state before its first chunk: no qualifiers,
// its sum going to sum.
func newFusedAcc(sum *ExactSum) fusedAcc {
	return fusedAcc{FilterAgg: FilterAgg{Min: math.Inf(1), Max: math.Inf(-1)}, sum: sum}
}

// finish settles the sum once the last chunk is in: an integer-backed
// scan's sum joins the caller's exact sum.
func (a *fusedAcc) finish(mode FusedMode) FilterAgg {
	if mode == FusedSum {
		a.sum.AddInt(a.isum)
	}
	return a.FilterAgg
}

// FilterAggRangeBlocked runs a fused filter+aggregate scan over [lo, hi)
// in chunks aligned to blockLen boundaries, lowering the predicate once
// for the whole scan, and appends each chunk's qualifying count to counts
// — one count per block, zeros included, from block lo/blockLen of the
// span clamped to the column — for the caller to charge (one chunk never
// crosses a cost-model block). It returns the count and extrema and the
// extended counts; in FusedSum mode it adds the qualifiers' exact sum to
// sum (which the other modes leave alone, and may be nil) and rounds
// nothing. Result-equal to FilterRange followed by an exact aggregation
// of the selection, for any blockLen (asserted by
// TestFusedKernelsMatchCompose); the chunking only exists so callers can
// charge per block without re-deriving the predicate per chunk. With a
// memo, a complete block whose partial the memo keeps is answered from
// it — same result bits, same counts — a run of such blocks in one loop,
// and a complete block it has not seen is read once and kept; the memo
// also keeps the lowered predicate for its key. memo may be nil, and the
// predicate is then lowered on every call. KernelBytes counts the bytes
// of [lo, hi) either way.
func (c *Column) FilterAggRangeBlocked(lo, hi, blockLen int, op RangeOp, operand Value, mode FusedMode, memo *FusedMemo, sum *ExactSum, counts []int32) (FilterAgg, []int32) {
	lo, hi = c.clampRange(lo, hi)
	acc := newFusedAcc(sum)
	if hi == lo {
		return acc.FilterAgg, counts
	}
	c.countSpan(lo, hi)
	if blockLen <= 0 {
		blockLen, memo = hi-lo, nil
	}
	var lowered preparedPred
	pp, parts := &lowered, []blockPartial(nil)
	if memo != nil {
		pp, parts = memo.prepare(c, op, operand, mode, blockLen)
	} else {
		lowered = c.preparePred(op, operand)
	}
	var sc *floatScan // int and string columns read none
	if c.typ == Float64 {
		sc = &floatScan{exp: sumExpFor(math.Abs(pp.b))}
	}
	float := c.typ == Float64
	b := lo / blockLen
	counts = slices.Grow(counts, (hi-1)/blockLen-b+1)
	for cur := lo; cur < hi; {
		end := min((b+1)*blockLen, hi)
		var k int
		switch {
		case b >= len(parts) || end-cur < blockLen || parts[b].state == partRefused:
			// No memo, a partial head or tail chunk, or a refused block.
			k = c.fusedChunk(pp, cur, end, mode, &acc, sc)
		case parts[b].state == partUnread && !c.keepBlock(&parts[b], pp, cur, end, mode, &acc, sc):
			// Refused as it was read, and folded then.
			k = int(parts[b].n)
		default:
			// Kept, now or on an earlier scan: fold the run of kept
			// complete blocks that starts here.
			var run int
			run, counts = acc.foldKept(parts[b:hi/blockLen], mode, float, counts)
			b += run
			cur = b * blockLen
			continue
		}
		counts = append(counts, int32(k))
		b, cur = b+1, end
	}
	return acc.finish(mode), counts
}

// FilterAggSelBlocked is FilterAggRangeBlocked over a prior selection:
// the ascending selection is segmented at blockLen boundaries, the
// predicate is lowered once, and one qualifying count per block goes to
// counts — every block from sel[0]/blockLen to the last the selection
// enters, zeros for the blocks it skips. Out-of-range positions are
// skipped, matching FilterSel. Its sum goes to sum, as the range form's
// does.
func (c *Column) FilterAggSelBlocked(sel []int32, blockLen int, op RangeOp, operand Value, mode FusedMode, sum *ExactSum, counts []int32) (FilterAgg, []int32) {
	acc := newFusedAcc(sum)
	if len(sel) == 0 {
		return acc.FilterAgg, counts
	}
	if blockLen <= 0 {
		blockLen = c.Len() + 1
	}
	c.countSel(len(sel))
	pp := c.preparePred(op, operand)
	var sc *floatScan // int and string columns read none
	if c.typ == Float64 {
		sc = &floatScan{exp: sumExpFor(math.Abs(pp.b))}
	}
	for i, end := 0, (int(sel[0])/blockLen+1)*blockLen; i < len(sel); end += blockLen {
		j := i
		for j < len(sel) && int(sel[j]) < end {
			j++
		}
		k := 0
		if j > i {
			k = c.fusedSelChunk(&pp, sel[i:j], mode, &acc, sc)
		}
		counts = append(counts, int32(k))
		i = j
	}
	return acc.finish(mode), counts
}

// fusedSelChunk runs one prepared segment of a selection into total and
// returns how many of its rows qualified — fusedChunk's selection form.
func (c *Column) fusedSelChunk(pp *preparedPred, sel []int32, mode FusedMode, total *fusedAcc, sc *floatScan) int {
	n := c.Len()
	if c.typ != Float64 {
		ca := c.exactSelChunk(pp, sel, n, mode)
		total.absorb(ca)
		return ca.n
	}
	qualified := 0
	if mode == FusedSum {
		// Gather the segment's values and sum them through the same
		// windows as a range scan, the predicate applied there.
		var vals [fusedBufLen]float64
		for len(sel) > 0 {
			step := sel[:min(len(sel), fusedBufLen)]
			k := 0
			for _, p := range step {
				if p >= 0 && int(p) < n {
					vals[k] = c.flts[p]
					k++
				}
			}
			qualified += sc.sumWindow(vals[:k], pp, total.sum)
			sel = sel[len(step):]
		}
		total.N += qualified
		return qualified
	}
	for len(sel) > 0 {
		step := sel[:min(len(sel), fusedBufLen)]
		k := 0
		for _, p := range step {
			if p < 0 || int(p) >= n {
				continue
			}
			sc.buf[k] = p
			k += passFloat(c.flts[p], pp.b, pp.wLt, pp.wGt, pp.wEq)
		}
		foldFloats(c.flts, sc.buf[:k], mode, total)
		qualified += k
		sel = sel[len(step):]
	}
	total.N += qualified
	return qualified
}

// exactSelChunk aggregates one selection segment of an integer-backed
// column.
func (c *Column) exactSelChunk(pp *preparedPred, sel []int32, n int, mode FusedMode) chunkAgg {
	switch c.typ {
	case Int64:
		if pp.none {
			return emptyChunk()
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
			return chunkAgg{n: cnt, isum: isum, min: math.Inf(1), max: math.Inf(-1)}.only(mode)
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
		return boolChunk(cnt, ones, mode)
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
	return emptyChunk()
}
