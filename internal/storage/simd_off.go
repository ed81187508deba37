//go:build purego || (!amd64 && !arm64)

package storage

import "math"

// Pure-Go build: no assembly is linked and every dispatch flag is a
// compile-time false, so the kernel call sites dead-code-eliminate the
// SIMD branches and the storage layer runs exactly the reference loops.
// This is the `purego` escape hatch for unsupported hosts (and the
// build CI proves it compiles everywhere) — see ARCHITECTURE.md
// "Kernel layer" for the build-tag matrix.
const (
	simdSum          = false
	simdMinMax       = false
	simdFilterSum    = false
	simdFilterMinMax = false
	simdCompress     = false
	simdFloatSum     = false
	simdCountCodes   = false
)

func simdAvailable() bool { return false }

func setSIMD(bool) (restore func()) { return func() {} }

// The stubs below are unreachable (their flags are constant false) but
// keep the dispatch seams compiling; they delegate to the scalar
// reference so they would be correct even if called.

func simdSumInt64(v []int64) int64 { return sumInt64(v) }

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

func simdFilterSumInt64(v []int64, p intPred) (cnt int, isum int64) {
	for _, x := range v {
		q := p.test(x)
		cnt += q
		isum += x & int64(-q)
	}
	return cnt, isum
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
