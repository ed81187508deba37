//go:build arm64 && !purego

package storage

import (
	"math"

	"dbtouch/internal/storage/cpu"
)

// NEON dispatch (arm64). Only the sum and fused filter+sum kernels have
// assembly bodies here: those are the two hottest loops, they need only
// VADD/CMGT/logic ops, and the port stays small enough to audit by
// decode (this tree is developed on amd64, so the arm64 kernels are
// assemble- and objdump-verified rather than benchmarked in CI — keep
// them conservative). Min/max, filtered min/max, compare+compress and
// the string count take the pure-Go kernels, which the gc compiler
// already keeps branch-free.
var (
	simdSum          = cpu.ARM64.HasASIMD && !raceEnabled
	simdFilterSum    = cpu.ARM64.HasASIMD && !raceEnabled
	simdMinMax       = false
	simdFilterMinMax = false
	simdCompress     = false
	simdFloatSum     = false
	simdCountCodes   = false
)

// simdAvailable reports whether this build+host can run the SIMD
// kernels at all (used by the paired scalar/SIMD benchmarks).
func simdAvailable() bool { return cpu.ARM64.HasASIMD && !raceEnabled }

// setSIMD forces the implemented dispatch flags on or off for the
// paired benchmarks and returns a restore func. Flags with no arm64
// assembly stay false either way.
func setSIMD(on bool) (restore func()) {
	oldSum, oldFS := simdSum, simdFilterSum
	set := on && simdAvailable()
	simdSum, simdFilterSum = set, set
	return func() {
		simdSum, simdFilterSum = oldSum, oldFS
	}
}

// Assembly kernels (simd_arm64.s). neonSumInt64 needs len(v) % 8 == 0,
// neonFilterSumInt64 len(v) % 4 == 0, both with len(v) > 0.

//go:noescape
func neonSumInt64(v []int64) int64

//go:noescape
func neonFilterSumInt64(v []int64, lo, hi int64, kxor uint64) (cnt, isum int64)

// simdSumInt64 sums v exactly (wrapping int64 addition is associative,
// so the vector lane order is bit-identical to the scalar loop).
func simdSumInt64(v []int64) int64 {
	n := len(v) &^ 7
	var s int64
	if n > 0 {
		s = neonSumInt64(v[:n])
	}
	for _, x := range v[n:] {
		s += x
	}
	return s
}

// simdFilterSumInt64 counts and sums the values passing p.
func simdFilterSumInt64(v []int64, p intPred) (cnt int, isum int64) {
	n := len(v) &^ 3
	if n > 0 {
		c, s := neonFilterSumInt64(v[:n], p.lo, p.hi, kxorFor(p))
		cnt, isum = int(c), s
	}
	for _, x := range v[n:] {
		q := p.test(x)
		cnt += q
		isum += x & int64(-q)
	}
	return cnt, isum
}

// kxorFor converts intPred.neg to the mask the asm XORs the fail mask
// with: all-ones complements it into the pass mask (neg == 0), zero
// keeps it (neg == 1, RangeNe's complemented interval).
func kxorFor(p intPred) uint64 {
	if p.neg != 0 {
		return 0
	}
	return ^uint64(0)
}

// The kernels below have no arm64 assembly; their flags are false and
// these scalar bodies exist only to keep the shared dispatch seams
// compiling (and correct, were they ever called).

func simdMinMaxInt64(v []int64) (mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	for _, x := range v {
		mn = min(mn, x)
		mx = max(mx, x)
	}
	return mn, mx
}

func simdMinMaxFloat64(v []float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

func simdFilterMinInt64(v []int64, p intPred) (cnt int, mn int64) { return minPassing(v, p) }

func simdFilterMaxInt64(v []int64, p intPred) (cnt int, mx int64) { return maxPassing(v, p) }

func simdCompressInt64(v []int64, p intPred, base int, buf []int32) int {
	j := 0
	for i, x := range v {
		buf[j] = int32(base + i)
		j += p.test(x)
	}
	return j
}

func simdCompressFloat64(v []float64, b float64, wLt, wGt, wEq int, base int, buf []int32) int {
	j := 0
	for i, x := range v {
		buf[j] = int32(base + i)
		j += passFloat(x, b, wLt, wGt, wEq)
	}
	return j
}

func simdCountPassing(codes []int32, mask *[8]uint32, pass []bool) int {
	return countPassing(codes, pass)
}

// simdSumWindow has no assembly here: float SUM windows compact and add
// their qualifiers one by one (see Column.sumWindow).
func simdSumWindow(v []float64, pp *preparedPred, acc *ExactSum, exp *int) (int, bool) {
	return 0, false
}
