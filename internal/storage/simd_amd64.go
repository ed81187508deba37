//go:build amd64 && !purego

package storage

import (
	"math"

	"dbtouch/internal/storage/cpu"
)

// AVX2 dispatch (amd64). Each flag gates one kernel family at its
// dispatch seam in span.go / span_fused.go; they all require AVX2 (the
// kernels use VPCMPGTQ/VPERMD, which SSE-only hosts lack) and a
// non-race build (see race_on.go). The purego build tag removes this
// file entirely and substitutes simd_off.go's constant-false flags, so
// `go build -tags purego` carries no assembly at all.
//
// The assembly in simd_amd64.s processes only whole vector blocks
// (multiples of 4 or 8 elements); the wrappers here run the remainder
// through the scalar reference loops and merge. Every merge is exact:
// int64 sums wrap associatively, counts and extrema are
// order-insensitive, and the compress kernels write positions in
// ascending order before the tail continues — so dispatched results are
// bit-identical to the pure-Go kernels (asserted by simd_diff_test.go
// and, end to end, by the kernel-vs-compose property suite).
var (
	simdSum          = cpu.X86.HasAVX2 && !raceEnabled
	simdMinMax       = cpu.X86.HasAVX2 && !raceEnabled
	simdFilterSum    = cpu.X86.HasAVX2 && !raceEnabled
	simdFilterMinMax = cpu.X86.HasAVX2 && !raceEnabled
	simdCompress     = cpu.X86.HasAVX2 && !raceEnabled
	simdFloatSum     = cpu.X86.HasAVX2 && !raceEnabled
	simdCountCodes   = cpu.X86.HasAVX2 && !raceEnabled
)

// simdAvailable reports whether this build+host can run the SIMD
// kernels at all (used by the paired scalar/SIMD benchmarks).
func simdAvailable() bool { return cpu.X86.HasAVX2 && !raceEnabled }

// setSIMD forces every dispatch flag on or off for the paired
// benchmarks and returns a restore func. "On" is clamped to
// simdAvailable().
func setSIMD(on bool) (restore func()) {
	oldSum, oldMM, oldFS, oldFM, oldC, oldFF, oldCC := simdSum, simdMinMax, simdFilterSum, simdFilterMinMax, simdCompress, simdFloatSum, simdCountCodes
	set := on && simdAvailable()
	simdSum, simdMinMax, simdFilterSum, simdFilterMinMax, simdCompress, simdFloatSum, simdCountCodes = set, set, set, set, set, set, set
	return func() {
		simdSum, simdMinMax, simdFilterSum, simdFilterMinMax, simdCompress, simdFloatSum, simdCountCodes = oldSum, oldMM, oldFS, oldFM, oldC, oldFF, oldCC
	}
}

// Assembly kernels (simd_amd64.s). Length preconditions are the
// wrappers' responsibility: avxSumInt64, the filter kernels, the
// compress kernels, the extraction kernels and avxCountCodes need
// len(v) % 8 == 0, the 4-lane min/max kernels len(v) % 4 == 0, all with
// len(v) > 0.

//go:noescape
func avxSumInt64(v []int64) int64

//go:noescape
func avxMinMaxInt64(v []int64, lanes *[8]int64)

//go:noescape
func avxMinMaxFloat64(v []float64, lanes *[8]float64)

//go:noescape
func avxFilterSumInt64(v []int64, lo, hi int64, kxor uint64) (cnt, isum int64)

//go:noescape
func avxFilterMinInt64(v []int64, lo, hi int64, kxor uint64, lanes *[4]int64) (cnt int64)

//go:noescape
func avxFilterMaxInt64(v []int64, lo, hi int64, kxor uint64, lanes *[4]int64) (cnt int64)

//go:noescape
func avxCompressInt64(v []int64, lo, hi int64, kxor uint64, base int64, lut *byte, out *int32) int64

//go:noescape
func avxCompressFloat64(v []float64, b float64, wlt, wgt, weq uint64, base int64, lut *byte, out *int32) int64

//go:noescape
func avxCountCodes(codes []int32, mask *[8]uint32) int64

// The masked extraction kernels, one per operator (the compare predicate
// is an immediate): out gets Σq1, Σq2, max|x| over the qualifiers and the
// OR of the residual bits; the result is the qualifying count. See
// simdSumWindow.

//go:noescape
func avxExtractSumEq(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

//go:noescape
func avxExtractSumNe(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

//go:noescape
func avxExtractSumLt(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

//go:noescape
func avxExtractSumLe(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

//go:noescape
func avxExtractSumGt(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

//go:noescape
func avxExtractSumGe(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)

// compressLUT maps an 8-bit pass mask to the lane indices of its set
// bits, packed to the front — the VPERMD shuffle table for the
// compare+compress kernels.
var compressLUT = func() (t [256][8]byte) {
	for m := range t {
		k := 0
		for lane := 0; lane < 8; lane++ {
			if m>>lane&1 != 0 {
				t[m][k] = byte(lane)
				k++
			}
		}
	}
	return
}()

// kxorFor converts intPred.neg to the mask the asm XORs the fail mask
// with: all-ones complements it into the pass mask (neg == 0), zero
// keeps it (neg == 1, RangeNe's complemented interval).
func kxorFor(p intPred) uint64 {
	if p.neg != 0 {
		return 0
	}
	return ^uint64(0)
}

// simdSumInt64 sums v exactly (wrapping int64 addition is associative,
// so the vector lane order is bit-identical to the scalar loop).
func simdSumInt64(v []int64) int64 {
	n := len(v) &^ 7
	var s int64
	if n > 0 {
		s = avxSumInt64(v[:n])
	}
	for _, x := range v[n:] {
		s += x
	}
	return s
}

// simdMinMaxInt64 reports the extrema of v (len(v) > 0 not required:
// empty input reports the MaxInt64/MinInt64 sentinels like an empty
// scalar loop).
func simdMinMaxInt64(v []int64) (mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	n := len(v) &^ 3
	if n > 0 {
		var lanes [8]int64
		avxMinMaxInt64(v[:n], &lanes)
		for i := 0; i < 4; i++ {
			mn = min(mn, lanes[i])
			mx = max(mx, lanes[4+i])
		}
	}
	for _, x := range v[n:] {
		mn = min(mn, x)
		mx = max(mx, x)
	}
	return mn, mx
}

// simdMinMaxFloat64 reports the extrema of v, skipping NaN exactly like
// the scalar `if v < mn` loop: the asm's ordered compares (LT_OQ/GT_OQ)
// are false on NaN, so NaN lanes never replace the running extrema.
func simdMinMaxFloat64(v []float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	n := len(v) &^ 3
	if n > 0 {
		var lanes [8]float64
		avxMinMaxFloat64(v[:n], &lanes)
		for i := 0; i < 4; i++ {
			if lanes[i] < mn {
				mn = lanes[i]
			}
			if lanes[4+i] > mx {
				mx = lanes[4+i]
			}
		}
	}
	for _, x := range v[n:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// simdCountPassing counts the codes whose pass bit is set: mask is pass
// folded by foldPass, so every code is below maskCodes. Whole 8-code
// blocks run in the kernel, the ragged tail through countPassing.
func simdCountPassing(codes []int32, mask *[8]uint32, pass []bool) int {
	n := len(codes) &^ 7
	cnt := countPassing(codes[n:], pass)
	if n > 0 {
		cnt += int(avxCountCodes(codes[:n], mask))
	}
	return cnt
}

// simdFilterSumInt64 counts and sums the values passing p.
func simdFilterSumInt64(v []int64, p intPred) (cnt int, isum int64) {
	n := len(v) &^ 7
	if n > 0 {
		c, s := avxFilterSumInt64(v[:n], p.lo, p.hi, kxorFor(p))
		cnt, isum = int(c), s
	}
	for _, x := range v[n:] {
		q := p.test(x)
		cnt += q
		isum += x & int64(-q)
	}
	return cnt, isum
}

// simdFilterMinInt64 counts the values passing p and keeps their
// minimum. The asm returns its four pass-masked minimum lanes (with the
// MaxInt64 sentinel minPassing uses) and the wrapper folds them with
// the scalar tail.
func simdFilterMinInt64(v []int64, p intPred) (cnt int, mn int64) {
	n := len(v) &^ 7
	cnt, mn = minPassing(v[n:], p)
	if n > 0 {
		var lanes [4]int64
		cnt += int(avxFilterMinInt64(v[:n], p.lo, p.hi, kxorFor(p), &lanes))
		for _, x := range lanes {
			mn = min(mn, x)
		}
	}
	return cnt, mn
}

// simdFilterMaxInt64 is simdFilterMinInt64 for the maximum.
func simdFilterMaxInt64(v []int64, p intPred) (cnt int, mx int64) {
	n := len(v) &^ 7
	cnt, mx = maxPassing(v[n:], p)
	if n > 0 {
		var lanes [4]int64
		cnt += int(avxFilterMaxInt64(v[:n], p.lo, p.hi, kxorFor(p), &lanes))
		for _, x := range lanes {
			mx = max(mx, x)
		}
	}
	return cnt, mx
}

// simdCompressInt64 appends to buf the positions base+i whose v[i]
// passes p, returning the count written. buf must have room for
// len(v) entries: the asm stores whole 8-lane blocks unconditionally
// (the cursor only advances by the pass count), exactly like the scalar
// kernel's unconditional buf[j] store.
func simdCompressInt64(v []int64, p intPred, base int, buf []int32) int {
	j := 0
	n := len(v) &^ 7
	if len(buf) < len(v) {
		n = 0 // callers always size buf via selGrow; stay safe regardless
	}
	if n > 0 {
		j = int(avxCompressInt64(v[:n], p.lo, p.hi, kxorFor(p), int64(base), &compressLUT[0][0], &buf[0]))
	}
	for i := n; i < len(v); i++ {
		buf[j] = int32(base + i)
		j += p.test(v[i])
	}
	return j
}

// simdCompressFloat64 is the float compress kernel: positions whose
// value satisfies the decomposed wants masks (passFloat semantics; NaN
// fails both ordered compares and lands on the wEq mask).
func simdCompressFloat64(v []float64, b float64, wLt, wGt, wEq int, base int, buf []int32) int {
	j := 0
	n := len(v) &^ 7
	if len(buf) < len(v) {
		n = 0
	}
	if n > 0 {
		j = int(avxCompressFloat64(v[:n], b, mask64(wLt), mask64(wGt), mask64(wEq), int64(base), &compressLUT[0][0], &buf[0]))
	}
	for i := n; i < len(v); i++ {
		buf[j] = int32(base + i)
		j += passFloat(v[i], b, wLt, wGt, wEq)
	}
	return j
}

// mask64 widens a 0/1 wants weight to the all-or-nothing qword mask the
// asm ANDs compare results with.
func mask64(w int) uint64 {
	if w != 0 {
		return ^uint64(0)
	}
	return 0
}

// extractSum runs op's extraction kernel over v (len(v) % 8 == 0, > 0).
func extractSum(op RangeOp, v []float64, b, s1, s2 float64, out *[4]float64) int64 {
	switch op {
	case RangeEq:
		return avxExtractSumEq(v, b, s1, s2, out)
	case RangeNe:
		return avxExtractSumNe(v, b, s1, s2, out)
	case RangeLt:
		return avxExtractSumLt(v, b, s1, s2, out)
	case RangeLe:
		return avxExtractSumLe(v, b, s1, s2, out)
	case RangeGt:
		return avxExtractSumGt(v, b, s1, s2, out)
	default:
		return avxExtractSumGe(v, b, s1, s2, out)
	}
}

// simdSumWindow adds the qualifying values of one window v (at most
// fusedBufLen rows) to acc exactly, with no compaction: Rump, Ogita and
// Oishi's ExtractVector ("Accurate floating-point summation, part I",
// SIAM J. Sci. Comput. 2008) over masked lanes. With every qualifier
// |x| < 2^e, σ1 = 2^(e+10) and σ2 = 2^(e-33), each lane runs
//
//	x &= pass
//	q1 = (σ1+x)-σ1; r1 = x-q1; A1 += q1
//	q2 = (σ2+r1)-σ2; r2 = r1-q2; A2 += q2
//	res |= r2
//
// Every q1 is a multiple of 2^(e-43) no larger than 2^e, and every q2 a
// multiple of 2^(e-86) no larger than 2^(e-43), so any sum of up to 1024
// of either fits 53 bits: the lane accumulators, their fold across lanes
// and the two totals are all exact, whatever the order. When no residual
// r2 is left, Σq1 + Σq2 is the window's exact sum and two ExactSum adds
// take it in. A non-qualifier is masked to +0 and adds nothing.
//
// e is carried in *exp from window to window (a scan's values change
// binade rarely; the scan starts from the operand's binade). A window
// whose qualifiers reach 2^e, or leave a residual under a bound looser
// than their own, is redone once with the bound its own maximum gives —
// it is still in L1. It is left to the scalar path (ok == false, acc
// untouched) when a NaN or infinity qualified (an accumulator is not
// finite), when a residual remains under its own bound (the qualifiers
// span more than 33 binades), or when its bound would be past maxSumExp
// (σ1 would overflow).
func simdSumWindow(v []float64, pp *preparedPred, acc *ExactSum, exp *int) (n int, ok bool) {
	whole := len(v) &^ 7
	if whole == 0 {
		return 0, false
	}
	var out [4]float64
	for retried := false; ; retried = true {
		e := *exp
		cnt := extractSum(pp.op, v[:whole], pp.b, pow2(e+10), pow2(e-33), &out)
		s1, s2, mx := out[0], out[1], out[2]
		if math.IsNaN(s1-s1) || math.IsNaN(s2-s2) {
			return 0, false
		}
		if mx < pow2(e) && math.Float64bits(out[3])<<1 == 0 {
			acc.Add(s1)
			acc.Add(s2)
			n = int(cnt)
			break
		}
		ne := sumExpFor(mx)
		if retried || ne == e {
			return 0, false
		}
		*exp = ne
	}
	for _, x := range v[whole:] {
		if passFloat(x, pp.b, pp.wLt, pp.wGt, pp.wEq) == 1 {
			acc.Add(x)
			n++
		}
	}
	return n, true
}

// pow2 is 2^k for a normal exponent k.
func pow2(k int) float64 { return math.Float64frombits(uint64(k+1023) << 52) }
