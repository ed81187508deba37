//go:build amd64 && !purego

package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbtouch/internal/storage/cpu"
)

// Differential suite: every SIMD wrapper against the scalar reference
// loop it replaces, bit for bit, across fuzzed lengths (odd tails
// included) and the adversarial value matrix (NaN, ±Inf, ±0, ±2^53,
// MinInt64/MaxInt64 wrap). Unlike the dispatch flags, these tests call
// the asm-backed wrappers directly, so they exercise the assembly even
// under -race (where the dispatch is forced scalar — see race_on.go)
// and regardless of setSIMD state. They only need the CPU feature, not
// simdAvailable().

func skipNoAVX2(t *testing.T) {
	t.Helper()
	if !cpu.X86.HasAVX2 {
		t.Skip("host has no AVX2; nothing to differentiate")
	}
}

// diffLengths covers empty, sub-vector, exact-block and ragged-tail
// spans for both the 4- and 8-lane kernels.
var diffLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255, 256, 257, 1000}

func fuzzInts(rng *rand.Rand, n int) []int64 {
	edge := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53), 100, -100}
	v := make([]int64, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = edge[rng.Intn(len(edge))]
		case 1:
			v[i] = int64(rng.Intn(201) - 100)
		default:
			v[i] = rng.Int63() - rng.Int63()
		}
	}
	return v
}

func fuzzFloats(rng *rand.Rand, n int) []float64 {
	edge := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, -(1 << 53), 0.5, 100}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = edge[rng.Intn(len(edge))]
		} else {
			v[i] = rng.NormFloat64() * 100
		}
	}
	return v
}

// diffPreds is the intPred edge matrix: interval, one-sided both ways,
// trivially-true, trivially-false, point, and each negated (RangeNe's
// complemented-interval shape).
func diffPreds() []intPred {
	const minI, maxI = int64(math.MinInt64), int64(math.MaxInt64)
	base := []intPred{
		{lo: -50, hi: 50},
		{lo: minI, hi: 0},
		{lo: 0, hi: maxI},
		{lo: minI, hi: maxI},
		{lo: 7, hi: 7},
		{lo: 1, hi: -1},
		{lo: 1 << 53, hi: maxI},
	}
	out := make([]intPred, 0, 2*len(base))
	for _, p := range base {
		out = append(out, p, intPred{lo: p.lo, hi: p.hi, neg: 1})
	}
	return out
}

func TestSIMDSumInt64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(1))
	for _, n := range diffLengths {
		for round := 0; round < 8; round++ {
			v := fuzzInts(rng, n)
			if got, want := simdSumInt64(v), sumInt64(v); got != want {
				t.Fatalf("n=%d: simd sum %d, scalar %d", n, got, want)
			}
		}
	}
}

func TestSIMDMinMaxInt64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(2))
	for _, n := range diffLengths {
		for round := 0; round < 8; round++ {
			v := fuzzInts(rng, n)
			gmn, gmx := simdMinMaxInt64(v)
			wmn, wmx := int64(math.MaxInt64), int64(math.MinInt64)
			for _, x := range v {
				wmn = min(wmn, x)
				wmx = max(wmx, x)
			}
			if gmn != wmn || gmx != wmx {
				t.Fatalf("n=%d: simd (%d,%d), scalar (%d,%d)", n, gmn, gmx, wmn, wmx)
			}
		}
	}
}

func TestSIMDMinMaxFloat64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range diffLengths {
		for round := 0; round < 8; round++ {
			v := fuzzFloats(rng, n)
			gmn, gmx := simdMinMaxFloat64(v)
			wmn, wmx := math.Inf(1), math.Inf(-1)
			for _, x := range v {
				if x < wmn {
					wmn = x
				}
				if x > wmx {
					wmx = x
				}
			}
			if math.Float64bits(gmn) != math.Float64bits(wmn) || math.Float64bits(gmx) != math.Float64bits(wmx) {
				t.Fatalf("n=%d: simd (%v,%v), scalar (%v,%v)", n, gmn, gmx, wmn, wmx)
			}
		}
	}
}

func TestSIMDFilterSumInt64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(4))
	for _, p := range diffPreds() {
		for _, n := range diffLengths {
			v := fuzzInts(rng, n)
			gc, gs := simdFilterSumInt64(v, p)
			wc, ws := 0, int64(0)
			for _, x := range v {
				q := p.test(x)
				wc += q
				ws += x & int64(-q)
			}
			if gc != wc || gs != ws {
				t.Fatalf("pred %+v n=%d: simd (%d,%d), scalar (%d,%d)", p, n, gc, gs, wc, ws)
			}
		}
	}
}

// TestSIMDFilterAggInt64Differential holds the one-extremum filter
// kernels (the MIN and MAX slides' cores) to a branchy scalar loop, over
// fuzzed values and over runs of a single edge value — all MinInt64, all
// MaxInt64, all ±2^53 — where the kernels' sentinels and the data
// coincide.
func TestSIMDFilterAggInt64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(5))
	edges := []int64{math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53)}
	for _, p := range diffPreds() {
		for _, n := range diffLengths {
			inputs := [][]int64{fuzzInts(rng, n)}
			for _, e := range edges {
				v := make([]int64, n)
				for i := range v {
					v[i] = e
				}
				inputs = append(inputs, v)
			}
			for _, v := range inputs {
				wc, wmn, wmx := 0, int64(math.MaxInt64), int64(math.MinInt64)
				for _, x := range v {
					if p.test(x) == 1 {
						wc++
						if x < wmn {
							wmn = x
						}
						if x > wmx {
							wmx = x
						}
					}
				}
				if gc, gmn := simdFilterMinInt64(v, p); gc != wc || gmn != wmn {
					t.Fatalf("pred %+v n=%d: simd min (%d,%d), scalar (%d,%d)", p, n, gc, gmn, wc, wmn)
				}
				if gc, gmx := simdFilterMaxInt64(v, p); gc != wc || gmx != wmx {
					t.Fatalf("pred %+v n=%d: simd max (%d,%d), scalar (%d,%d)", p, n, gc, gmx, wc, wmx)
				}
			}
		}
	}
}

func TestSIMDCompressInt64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for _, p := range diffPreds() {
		for _, n := range diffLengths {
			v := fuzzInts(rng, n)
			base := rng.Intn(1000)
			gbuf := make([]int32, n)
			wbuf := make([]int32, n)
			gj := simdCompressInt64(v, p, base, gbuf)
			wj := 0
			for i, x := range v {
				if wj < len(wbuf) {
					wbuf[wj] = int32(base + i)
				}
				wj += p.test(x)
			}
			if gj != wj {
				t.Fatalf("pred %+v n=%d: simd wrote %d, scalar %d", p, n, gj, wj)
			}
			for i := 0; i < gj; i++ {
				if gbuf[i] != wbuf[i] {
					t.Fatalf("pred %+v n=%d: buf[%d] simd %d, scalar %d", p, n, i, gbuf[i], wbuf[i])
				}
			}
		}
	}
}

func TestSIMDCompressFloat64Differential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(7))
	operands := []float64{0, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, -100}
	for _, b := range operands {
		for wants := 0; wants < 8; wants++ {
			wLt, wGt, wEq := wants&1, wants>>1&1, wants>>2&1
			for _, n := range diffLengths {
				v := fuzzFloats(rng, n)
				base := rng.Intn(1000)
				gbuf := make([]int32, n)
				wbuf := make([]int32, n)
				gj := simdCompressFloat64(v, b, wLt, wGt, wEq, base, gbuf)
				wj := 0
				for i, x := range v {
					if wj < len(wbuf) {
						wbuf[wj] = int32(base + i)
					}
					wj += passFloat(x, b, wLt, wGt, wEq)
				}
				if gj != wj {
					t.Fatalf("b=%v wants=%03b n=%d: simd wrote %d, scalar %d", b, wants, n, gj, wj)
				}
				for i := 0; i < gj; i++ {
					if gbuf[i] != wbuf[i] {
						t.Fatalf("b=%v wants=%03b n=%d: buf[%d] simd %d, scalar %d", b, wants, n, i, gbuf[i], wbuf[i])
					}
				}
			}
		}
	}
}

// TestSIMDDispatchFlagsConsistent pins the dispatch contract: under
// -race every flag must be off (the detector cannot see loads inside
// assembly), and setSIMD must round-trip the flags.
func TestSIMDDispatchFlagsConsistent(t *testing.T) {
	if raceEnabled && (simdSum || simdMinMax || simdFilterSum || simdFilterMinMax || simdCompress || simdFloatSum || simdCountCodes) {
		t.Fatal("SIMD dispatch flags must be off under -race")
	}
	was := simdSum
	restore := setSIMD(false)
	if simdSum || simdFilterSum || simdCountCodes {
		t.Fatal("setSIMD(false) left a dispatch flag on")
	}
	restore()
	if simdSum != was {
		t.Fatal("setSIMD restore did not round-trip")
	}
}

// twinSumWindow is the scalar twin of simdSumWindow: compaction, then
// an ExactSum Add per qualifier.
func twinSumWindow(v []float64, pp *preparedPred, acc *ExactSum) int {
	n := 0
	for _, x := range v {
		if passFloat(x, pp.b, pp.wLt, pp.wGt, pp.wEq) == 1 {
			acc.Add(x)
			n++
		}
	}
	return n
}

// TestSIMDSumWindowDifferential holds the AVX2 extraction window to its
// scalar twin, bit for bit, for all six operators, NaN and infinite
// operands, ragged lengths, carried bounds from far too tight to far too
// loose, and value mixes that force the fallback: values 2^-60 below the
// bulk (residuals) and non-finite qualifiers. Windows the kernel accepts
// must add exactly what the twin adds; refused windows must leave the
// accumulator alone. Where every value qualifies, finite single-binade
// data must run on the kernel and the forcing mixes must not.
func TestSIMDSumWindowDifferential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(8))
	operands := []float64{0, 0.5, -100, 300, math.NaN(), math.Inf(1), math.Inf(-1)}
	lengths := []int{16, 17, 23, 24, 31, 64, 100, 257, 1000, 1023, 1024}
	mixes := []string{"finite", "edges", "residuals", "huge"}
	accepted := map[string]int{}
	for _, op := range fusedOps {
		for _, b := range operands {
			for _, n := range lengths {
				for _, mix := range mixes {
					var v []float64
					switch mix {
					case "edges":
						v = fuzzFloats(rng, n)
					default:
						v = make([]float64, n)
						for i := range v {
							v[i] = rng.NormFloat64() * 200
							if mix == "residuals" && i%7 == 3 {
								v[i] = rng.Float64() * math.Ldexp(200, -60)
							}
							if mix == "huge" {
								v[i] = math.Ldexp(rng.NormFloat64(), 1012+rng.Intn(12))
							}
						}
					}
					c := NewFloatColumn("f", v)
					pp := c.preparePred(op, FloatValue(b))
					for _, e0 := range []int{0, 9, -40, 200} {
						var got, want ExactSum
						got.Add(0.25)
						want.Add(0.25)
						before := got
						e := e0
						gotN, ok := simdSumWindow(v, &pp, &got, &e)
						if !ok {
							if got != before {
								t.Fatalf("op=%d b=%v n=%d %s: refused window touched the accumulator", op, b, n, mix)
							}
							continue
						}
						if op == RangeGe && math.IsInf(b, -1) { // every value qualifies
							accepted[mix]++
						}
						wantN := twinSumWindow(v, &pp, &want)
						if gotN != wantN || !sameBits(got.Round(), want.Round()) {
							t.Fatalf("op=%d b=%v n=%d %s e0=%d: kernel %v over %d, twin %v over %d", op, b, n, mix, e0, got.Round(), gotN, want.Round(), wantN)
						}
					}
				}
			}
		}
	}
	if accepted["finite"] == 0 || accepted["residuals"] != 0 || accepted["huge"] != 0 {
		t.Fatalf("accepted windows per mix = %v: finite data must run on the kernel, residuals and σ overflow must not", accepted)
	}
}

// TestSIMDSumWindowScanDirectShape runs scan_direct's float SUM — values
// k/1000 below 1000, `< 500` — as a scan does, 4096 windows of 1024 rows
// with the bound carried across them: no window may take the fallback,
// and the total must be the twin's.
func TestSIMDSumWindowScanDirectShape(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(9))
	v := make([]float64, 4096*fusedBufLen)
	for i := range v {
		v[i] = float64(rng.Int63n(1_000_000)) / 1000
	}
	c := NewFloatColumn("f", v)
	pp := c.preparePred(RangeLt, FloatValue(500))
	var got, want ExactSum
	exp, fallbacks, n := 0, 0, 0
	for lo := 0; lo < len(v); lo += fusedBufLen {
		w := v[lo : lo+fusedBufLen]
		k, ok := simdSumWindow(w, &pp, &got, &exp)
		if !ok {
			fallbacks++
			k = twinSumWindow(w, &pp, &got)
		}
		n += k
		twinSumWindow(w, &pp, &want)
	}
	if fallbacks != 0 {
		t.Fatalf("%d of 4096 windows fell back", fallbacks)
	}
	if !sameBits(got.Round(), want.Round()) {
		t.Fatalf("kernel total %v, twin %v", got.Round(), want.Round())
	}
}

// TestSIMDCountCodesDifferential holds the string COUNT kernel to the
// table loop it replaces: dictionaries on both sides of every bitmap
// word boundary up to maskCodes, the pass tables of every operator under
// string, int, float and NaN operands plus all-pass and none-pass, and
// lengths 0-70 and 1024 at ragged offsets. A dictionary one past
// maskCodes must not fold: it keeps the table loop.
func TestSIMDCountCodesDifferential(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(10))
	lengths := []int{1024}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, size := range []int{1, 2, 31, 32, 33, 63, 64, 65, 255, 256, 257} {
		words := make([]string, size)
		for i := range words {
			words[i] = fmt.Sprintf("w%03d", i)
		}
		// The dictionary interns every word, in order, and the codes are
		// drawn uniformly with the top code planted at both ends.
		vals := append([]string(nil), words...)
		for i := 0; i < 1024+8; i++ {
			vals = append(vals, words[rng.Intn(size)])
		}
		codes := NewStringColumn("s", vals).codes[size:]
		codes[0], codes[len(codes)-1] = int32(size-1), int32(size-1)
		c := NewStringColumn("s", words)

		operands := []Value{
			StringValue(words[0]), StringValue(words[size/2]), StringValue(words[size-1]),
			StringValue(""), StringValue("x"),
			IntValue(int64(size / 2)), FloatValue(2.5), FloatValue(math.NaN()),
		}
		var tables [][]bool
		for _, op := range fusedOps {
			for _, operand := range operands {
				tables = append(tables, c.passByCode(op, operand))
			}
		}
		all, none := make([]bool, size), make([]bool, size)
		for i := range all {
			all[i] = true
		}
		tables = append(tables, all, none)

		if simdAvailable() {
			restore := setSIMD(true)
			pp := c.preparePred(RangeLt, StringValue(words[size/2]))
			restore()
			if pp.masked != (size <= maskCodes) {
				t.Fatalf("dictionary of %d: folded = %v", size, pp.masked)
			}
		}
		if size > maskCodes {
			continue
		}
		for ti, pass := range tables {
			mask := foldPass(pass)
			for _, n := range lengths {
				off := rng.Intn(8)
				if n+off > len(codes) {
					off = len(codes) - n
				}
				v := codes[off : off+n]
				want := 0
				for _, code := range v {
					want += b2i(pass[code])
				}
				if got := simdCountPassing(v, &mask, pass); got != want {
					t.Fatalf("dictionary of %d, table %d, n=%d at offset %d: kernel %d, table loop %d", size, ti, n, off, got, want)
				}
			}
		}
	}
}
