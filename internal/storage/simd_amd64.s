//go:build amd64 && !purego

#include "textflag.h"

// AVX2 span kernels. Conventions shared by every routine:
//
//   - Lengths are whole vector blocks only (len%8==0 for the 2-vector
//     routines, len%4==0 for the 1-vector ones, len>0); the Go wrappers
//     in simd_amd64.go run remainders through the scalar loops.
//   - The interval predicate is the storage.intPred lowering: an
//     element passes iff (lo <= v && v <= hi) XOR neg. Vectorized as
//     fail = (lo > v) | (v > hi); pass = fail XOR kxor, where kxor is
//     all-ones for neg==0 and zero for neg==1. A pass lane is all-ones
//     (-1), so `cnt -= pass` counts and `v & pass` masks the summand —
//     the same identities the scalar branch-free loops use.
//   - int64 sums may wrap; wrapping addition is associative, so lane
//     order cannot change the result (bit-identity with the scalar
//     reference).
//   - Min/max routines return their four per-lane partial extrema
//     through a *[8]T (minima, then maxima) or, keeping one extremum, a
//     *[4]int64, rather than reducing across lanes in asm; the wrapper
//     folds them, which keeps the horizontal step in Go.
//   - VZEROUPPER before every RET (Go's ABI expects clean upper YMM
//     state on return).
//   - Every instruction that touches a vector register is VEX-encoded:
//     VMOVQ, not MOVQ, between a general and a vector register. A
//     legacy SSE instruction while a YMM upper half is dirty costs a
//     state transition; with MOVQ, a call over 64 rows took 180-300 ns
//     where it now takes 18-38 ns (2-vCPU Xeon VM), which is most of
//     what a short chunk — a slide step's ragged end — costs.

// iota8: the dword lanes 0..7, seed for the compress position counter.
DATA iota8<>+0(SB)/4, $0
DATA iota8<>+4(SB)/4, $1
DATA iota8<>+8(SB)/4, $2
DATA iota8<>+12(SB)/4, $3
DATA iota8<>+16(SB)/4, $4
DATA iota8<>+20(SB)/4, $5
DATA iota8<>+24(SB)/4, $6
DATA iota8<>+28(SB)/4, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $32

// func avxSumInt64(v []int64) int64
// Four accumulators, 32 elements per main-loop iteration.
TEXT ·avxSumInt64(SB), NOSPLIT, $0-32
	MOVQ  v_base+0(FP), SI
	MOVQ  v_len+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	CMPQ  CX, $32
	JL    sumtail

sumloop32:
	VPADDQ (SI), Y0, Y0
	VPADDQ 32(SI), Y1, Y1
	VPADDQ 64(SI), Y2, Y2
	VPADDQ 96(SI), Y3, Y3
	VPADDQ 128(SI), Y0, Y0
	VPADDQ 160(SI), Y1, Y1
	VPADDQ 192(SI), Y2, Y2
	VPADDQ 224(SI), Y3, Y3
	ADDQ   $256, SI
	SUBQ   $32, CX
	CMPQ   CX, $32
	JGE    sumloop32

sumtail:
	TESTQ CX, CX
	JZ    sumreduce

sumtail8:
	VPADDQ (SI), Y0, Y0
	VPADDQ 32(SI), Y1, Y1
	ADDQ   $64, SI
	SUBQ   $8, CX
	JNZ    sumtail8

sumreduce:
	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDQ       X1, X0, X0
	VZEROUPPER
	VMOVQ        X0, AX
	MOVQ         AX, ret+24(FP)
	RET

// func avxMinMaxInt64(v []int64, lanes *[8]int64)
// lanes[0:4] = per-lane minima, lanes[4:8] = per-lane maxima.
TEXT ·avxMinMaxInt64(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         lanes+24(FP), DI
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0             // running minima = MaxInt64
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1             // running maxima = MinInt64

mmloop:
	VMOVDQU   (SI), Y2
	VPCMPGTQ  Y2, Y0, Y3            // mn > v ?
	VBLENDVPD Y3, Y2, Y0, Y0        // mn = pick v where smaller
	VPCMPGTQ  Y1, Y2, Y3            // v > mx ?
	VBLENDVPD Y3, Y2, Y1, Y1
	ADDQ      $32, SI
	SUBQ      $4, CX
	JNZ       mmloop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VZEROUPPER
	RET

// func avxMinMaxFloat64(v []float64, lanes *[8]float64)
// Ordered compares (LT_OQ/GT_OQ) are false for NaN operands, so NaN
// elements never replace a running extremum — the scalar `if v < mn`
// NaN-skip, lane for lane.
TEXT ·avxMinMaxFloat64(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         lanes+24(FP), DI
	MOVQ         $0x7FF0000000000000, AX // +Inf
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ         $0xFFF0000000000000, AX // -Inf
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1

fmmloop:
	VMOVDQU   (SI), Y2
	VCMPPD    $0x11, Y0, Y2, Y3     // v < mn (LT_OQ)
	VBLENDVPD Y3, Y2, Y0, Y0
	VCMPPD    $0x1E, Y1, Y2, Y3     // v > mx (GT_OQ)
	VBLENDVPD Y3, Y2, Y1, Y1
	ADDQ      $32, SI
	SUBQ      $4, CX
	JNZ       fmmloop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VZEROUPPER
	RET

// func avxFilterSumInt64(v []int64, lo, hi int64, kxor uint64) (cnt, isum int64)
// The hot fused filter+sum inner loop: two vectors (8 elements) per
// iteration with independent count/sum accumulator pairs.
TEXT ·avxFilterSumInt64(SB), NOSPLIT, $0-64
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VPBROADCASTQ lo+24(FP), Y8
	VPBROADCASTQ hi+32(FP), Y9
	VPBROADCASTQ kxor+40(FP), Y10
	VPXOR        Y0, Y0, Y0         // sum lanes a
	VPXOR        Y1, Y1, Y1         // sum lanes b
	VPXOR        Y2, Y2, Y2         // cnt lanes a
	VPXOR        Y3, Y3, Y3         // cnt lanes b

fsloop:
	VMOVDQU  (SI), Y4
	VMOVDQU  32(SI), Y5
	VPCMPGTQ Y4, Y8, Y6             // lo > v
	VPCMPGTQ Y9, Y4, Y7             // v > hi
	VPOR     Y7, Y6, Y6
	VPXOR    Y10, Y6, Y6            // pass mask
	VPSUBQ   Y6, Y2, Y2             // cnt += 1 per pass lane
	VPAND    Y6, Y4, Y4
	VPADDQ   Y4, Y0, Y0
	VPCMPGTQ Y5, Y8, Y6
	VPCMPGTQ Y9, Y5, Y7
	VPOR     Y7, Y6, Y6
	VPXOR    Y10, Y6, Y6
	VPSUBQ   Y6, Y3, Y3
	VPAND    Y6, Y5, Y5
	VPADDQ   Y5, Y1, Y1
	ADDQ     $64, SI
	SUBQ     $8, CX
	JNZ      fsloop

	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDQ       X1, X0, X0
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0xEE, X2, X3
	VPADDQ       X3, X2, X2
	VZEROUPPER
	VMOVQ        X2, AX
	MOVQ         AX, cnt+48(FP)
	VMOVQ        X0, AX
	MOVQ         AX, isum+56(FP)
	RET

// func avxFilterMinInt64(v []int64, lo, hi int64, kxor uint64, lanes *[4]int64) (cnt int64)
// Fused filter+MIN: the count and one pass-masked minimum, nothing else.
// Two vectors (8 elements) per iteration, each with its own count and
// minimum accumulators; the minima fold lane-wise at the end and the
// four lanes go back through lanes (MaxInt64 where nothing passed).
TEXT ·avxFilterMinInt64(SB), NOSPLIT, $0-64
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VPBROADCASTQ lo+24(FP), Y8
	VPBROADCASTQ hi+32(FP), Y9
	VPBROADCASTQ kxor+40(FP), Y10
	MOVQ         lanes+48(FP), DI
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0             // minima a
	VPBROADCASTQ X0, Y1             // minima b
	VPXOR        Y2, Y2, Y2         // cnt a
	VPXOR        Y3, Y3, Y3         // cnt b

fminloop:
	VMOVDQU   (SI), Y4
	VMOVDQU   32(SI), Y5
	VPCMPGTQ  Y4, Y8, Y6            // lo > v
	VPCMPGTQ  Y9, Y4, Y7            // v > hi
	VPOR      Y7, Y6, Y6
	VPXOR     Y10, Y6, Y6           // pass a
	VPSUBQ    Y6, Y2, Y2
	VPCMPGTQ  Y4, Y0, Y7            // mn > v
	VPAND     Y6, Y7, Y7            // ... and passes
	VBLENDVPD Y7, Y4, Y0, Y0
	VPCMPGTQ  Y5, Y8, Y6
	VPCMPGTQ  Y9, Y5, Y7
	VPOR      Y7, Y6, Y6
	VPXOR     Y10, Y6, Y6           // pass b
	VPSUBQ    Y6, Y3, Y3
	VPCMPGTQ  Y5, Y1, Y7
	VPAND     Y6, Y7, Y7
	VBLENDVPD Y7, Y5, Y1, Y1
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       fminloop

	VPCMPGTQ     Y1, Y0, Y7         // a > b
	VBLENDVPD    Y7, Y1, Y0, Y0
	VMOVDQU      Y0, (DI)
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0xEE, X2, X3
	VPADDQ       X3, X2, X2
	VZEROUPPER
	VMOVQ        X2, AX
	MOVQ         AX, cnt+56(FP)
	RET

// func avxFilterMaxInt64(v []int64, lo, hi int64, kxor uint64, lanes *[4]int64) (cnt int64)
// avxFilterMinInt64 for the maximum (MinInt64 where nothing passed).
TEXT ·avxFilterMaxInt64(SB), NOSPLIT, $0-64
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VPBROADCASTQ lo+24(FP), Y8
	VPBROADCASTQ hi+32(FP), Y9
	VPBROADCASTQ kxor+40(FP), Y10
	MOVQ         lanes+48(FP), DI
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0             // maxima a
	VPBROADCASTQ X0, Y1             // maxima b
	VPXOR        Y2, Y2, Y2         // cnt a
	VPXOR        Y3, Y3, Y3         // cnt b

fmaxloop:
	VMOVDQU   (SI), Y4
	VMOVDQU   32(SI), Y5
	VPCMPGTQ  Y4, Y8, Y6            // lo > v
	VPCMPGTQ  Y9, Y4, Y7            // v > hi
	VPOR      Y7, Y6, Y6
	VPXOR     Y10, Y6, Y6           // pass a
	VPSUBQ    Y6, Y2, Y2
	VPCMPGTQ  Y0, Y4, Y7            // v > mx
	VPAND     Y6, Y7, Y7            // ... and passes
	VBLENDVPD Y7, Y4, Y0, Y0
	VPCMPGTQ  Y5, Y8, Y6
	VPCMPGTQ  Y9, Y5, Y7
	VPOR      Y7, Y6, Y6
	VPXOR     Y10, Y6, Y6           // pass b
	VPSUBQ    Y6, Y3, Y3
	VPCMPGTQ  Y1, Y5, Y7
	VPAND     Y6, Y7, Y7
	VBLENDVPD Y7, Y5, Y1, Y1
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       fmaxloop

	VPCMPGTQ     Y0, Y1, Y7         // b > a
	VBLENDVPD    Y7, Y1, Y0, Y0
	VMOVDQU      Y0, (DI)
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0xEE, X2, X3
	VPADDQ       X3, X2, X2
	VZEROUPPER
	VMOVQ        X2, AX
	MOVQ         AX, cnt+56(FP)
	RET

// func avxCompressInt64(v []int64, lo, hi int64, kxor uint64, base int64, lut *byte, out *int32) int64
// Compare+compress: 8 candidates per iteration. The two 4-lane pass
// masks collapse to an 8-bit movemask; a 256-entry shuffle LUT packs
// the passing position dwords to the front with VPERMD; the 8-dword
// store is unconditional and the cursor advances by POPCNT — the
// vector form of the scalar `buf[j] = pos; j += pass`.
TEXT ·avxCompressInt64(SB), NOSPLIT, $0-80
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VPBROADCASTQ lo+24(FP), Y8
	VPBROADCASTQ hi+32(FP), Y9
	VPBROADCASTQ kxor+40(FP), Y10
	MOVQ         lut+56(FP), R8
	MOVQ         out+64(FP), DI
	MOVQ         base+48(FP), AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Y11
	VMOVDQU      iota8<>(SB), Y12
	VPADDD       Y12, Y11, Y11      // positions {base..base+7}
	MOVL         $8, AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Y12            // position step
	XORQ         R9, R9             // output cursor

cloop:
	VMOVDQU  (SI), Y4
	VMOVDQU  32(SI), Y5
	VPCMPGTQ Y4, Y8, Y6
	VPCMPGTQ Y9, Y4, Y7
	VPOR     Y7, Y6, Y6
	VPXOR    Y10, Y6, Y6            // pass mask lanes 0-3
	VPCMPGTQ Y5, Y8, Y7
	VPCMPGTQ Y9, Y5, Y13
	VPOR     Y13, Y7, Y7
	VPXOR    Y10, Y7, Y7            // pass mask lanes 4-7
	VMOVMSKPD Y6, AX
	VMOVMSKPD Y7, BX
	SHLQ     $4, BX
	ORQ      BX, AX                 // 8-bit pass mask
	// VEX-encoded load+widen of the LUT entry: a legacy SSE MOVQ here
	// would pay the AVX-SSE transition penalty on every iteration.
	VPMOVZXBD (R8)(AX*8), Y6        // LUT entry: packed lane indices

	VPERMD   Y11, Y6, Y7            // gather passing positions
	VMOVDQU  Y7, (DI)(R9*4)
	POPCNTQ  AX, AX
	ADDQ     AX, R9
	VPADDD   Y12, Y11, Y11
	ADDQ     $64, SI
	SUBQ     $8, CX
	JNZ      cloop

	MOVQ R9, ret+72(FP)
	VZEROUPPER
	RET

// func avxCompressFloat64(v []float64, b float64, wlt, wgt, weq uint64, base int64, lut *byte, out *int32) int64
// Float compare+compress under the decomposed wants masks:
// pass = (v<b ? wlt : 0) | (v>b ? wgt : 0) | (unordered-or-equal ? weq : 0).
// Ordered compares are false on NaN, so NaN lands on the weq mask —
// passFloat's "equal-ish" semantics, lane for lane.
TEXT ·avxCompressFloat64(SB), NOSPLIT, $0-88
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VPBROADCASTQ b+24(FP), Y8
	VPBROADCASTQ wlt+32(FP), Y9
	VPBROADCASTQ wgt+40(FP), Y10
	VPBROADCASTQ weq+48(FP), Y13
	VPCMPEQD     Y14, Y14, Y14      // all-ones
	MOVQ         lut+64(FP), R8
	MOVQ         out+72(FP), DI
	MOVQ         base+56(FP), AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Y11
	VMOVDQU      iota8<>(SB), Y12
	VPADDD       Y12, Y11, Y11
	MOVL         $8, AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Y12
	XORQ         R9, R9

fcloop:
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y5
	// lanes 0-3
	VCMPPD  $0x11, Y8, Y4, Y6       // lt (LT_OQ)
	VCMPPD  $0x1E, Y8, Y4, Y7       // gt (GT_OQ)
	VPOR    Y7, Y6, Y15
	VPXOR   Y14, Y15, Y15           // eqish = !(lt|gt)
	VPAND   Y9, Y6, Y6
	VPAND   Y10, Y7, Y7
	VPAND   Y13, Y15, Y15
	VPOR    Y7, Y6, Y6
	VPOR    Y15, Y6, Y6             // pass lanes 0-3
	// lanes 4-7
	VCMPPD  $0x11, Y8, Y5, Y7
	VCMPPD  $0x1E, Y8, Y5, Y15
	VPOR    Y15, Y7, Y4
	VPXOR   Y14, Y4, Y4
	VPAND   Y9, Y7, Y7
	VPAND   Y10, Y15, Y15
	VPAND   Y13, Y4, Y4
	VPOR    Y15, Y7, Y7
	VPOR    Y4, Y7, Y7              // pass lanes 4-7
	VMOVMSKPD Y6, AX
	VMOVMSKPD Y7, BX
	SHLQ    $4, BX
	ORQ     BX, AX
	VPMOVZXBD (R8)(AX*8), Y6
	VPERMD  Y11, Y6, Y7
	VMOVDQU Y7, (DI)(R9*4)
	POPCNTQ AX, AX
	ADDQ    AX, R9
	VPADDD  Y12, Y11, Y11
	ADDQ    $64, SI
	SUBQ    $8, CX
	JNZ     fcloop

	MOVQ R9, ret+80(FP)
	VZEROUPPER
	RET

// EXTRACT_SUM(NAME, PRED) defines
// func NAME(v []float64, b, s1, s2 float64, out *[4]float64) (cnt int64)
// the masked error-free extraction of simdSumWindow, with the filter
// `x PRED b` as one VCMPPD per vector (PRED is passFloat's operator as an
// AVX predicate: ordered for Lt/Gt/Ne, unordered for Le/Ge/Eq, so a NaN
// element or operand passes exactly where passFloat passes it). Eight
// rows per iteration in two independent accumulator sets (a: Y0/Y2/Y12,
// b: Y1/Y3/Y13); the count (Y14) and the residual OR (Y15) are shared.
//   Y8 = b, Y9 = σ1, Y10 = σ2, Y11 = |x| mask
//   Y0/Y1 = Σq1, Y2/Y3 = Σq2, Y12/Y13 = max|x|
// out = {Σq1, Σq2, max|x|, OR of r2 bits}. Folding the two sets and the
// four lanes is exact (every partial is a sum of at most len(v) q's).
// The loop is compute-bound (14 vector ops per 4 rows), so it prefetches
// 2 KiB ahead: without it the column streams from DRAM in the gaps,
// about 1.4x slower over a 32 MB column.
#define EXTRACT_SUM(NAME, PRED) \
TEXT NAME(SB), NOSPLIT, $0-64; \
	MOVQ         v_base+0(FP), SI; \
	MOVQ         v_len+8(FP), CX; \
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX; \
	VMOVQ        AX, X11; \
	VPBROADCASTQ X11, Y11; \
	VBROADCASTSD b+24(FP), Y8; \
	VBROADCASTSD s1+32(FP), Y9; \
	VBROADCASTSD s2+40(FP), Y10; \
	VXORPD       Y0, Y0, Y0; \
	VXORPD       Y1, Y1, Y1; \
	VXORPD       Y2, Y2, Y2; \
	VXORPD       Y3, Y3, Y3; \
	VXORPD       Y12, Y12, Y12; \
	VXORPD       Y13, Y13, Y13; \
	VPXOR        Y14, Y14, Y14; \
	VPXOR        Y15, Y15, Y15; \
loop: \
	PREFETCHT0 2048(SI); \
	VMOVUPD (SI), Y4; \
	VMOVUPD 32(SI), Y5; \
	VCMPPD  PRED, Y8, Y4, Y6; \
	VPSUBQ  Y6, Y14, Y14; \
	VANDPD  Y6, Y4, Y4; \
	VANDPD  Y11, Y4, Y6; \
	VMAXPD  Y6, Y12, Y12; \
	VADDPD  Y9, Y4, Y6; \
	VSUBPD  Y9, Y6, Y6; \
	VSUBPD  Y6, Y4, Y4; \
	VADDPD  Y6, Y0, Y0; \
	VADDPD  Y10, Y4, Y6; \
	VSUBPD  Y10, Y6, Y6; \
	VSUBPD  Y6, Y4, Y4; \
	VADDPD  Y6, Y2, Y2; \
	VORPD   Y4, Y15, Y15; \
	VCMPPD  PRED, Y8, Y5, Y7; \
	VPSUBQ  Y7, Y14, Y14; \
	VANDPD  Y7, Y5, Y5; \
	VANDPD  Y11, Y5, Y7; \
	VMAXPD  Y7, Y13, Y13; \
	VADDPD  Y9, Y5, Y7; \
	VSUBPD  Y9, Y7, Y7; \
	VSUBPD  Y7, Y5, Y5; \
	VADDPD  Y7, Y1, Y1; \
	VADDPD  Y10, Y5, Y7; \
	VSUBPD  Y10, Y7, Y7; \
	VSUBPD  Y7, Y5, Y5; \
	VADDPD  Y7, Y3, Y3; \
	VORPD   Y5, Y15, Y15; \
	ADDQ    $64, SI; \
	SUBQ    $8, CX; \
	JNZ     loop; \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       Y3, Y2, Y2; \
	VMAXPD       Y13, Y12, Y12; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD       X1, X0, X0; \
	VUNPCKHPD    X0, X0, X1; \
	VADDSD       X1, X0, X0; \
	VEXTRACTF128 $1, Y2, X3; \
	VADDPD       X3, X2, X2; \
	VUNPCKHPD    X2, X2, X3; \
	VADDSD       X3, X2, X2; \
	VEXTRACTF128 $1, Y12, X13; \
	VMAXPD       X13, X12, X12; \
	VUNPCKHPD    X12, X12, X13; \
	VMAXSD       X13, X12, X12; \
	VEXTRACTF128 $1, Y15, X4; \
	VORPD        X4, X15, X15; \
	VUNPCKHPD    X15, X15, X4; \
	VORPD        X4, X15, X15; \
	VEXTRACTI128 $1, Y14, X5; \
	VPADDQ       X5, X14, X14; \
	VPSHUFD      $0xEE, X14, X5; \
	VPADDQ       X5, X14, X14; \
	MOVQ         out+48(FP), DI; \
	VMOVSD       X0, (DI); \
	VMOVSD       X2, 8(DI); \
	VMOVSD       X12, 16(DI); \
	VMOVSD       X15, 24(DI); \
	VMOVQ        X14, AX; \
	VZEROUPPER; \
	MOVQ         AX, cnt+56(FP); \
	RET

// Predicates: EQ_UQ, NEQ_OQ, LT_OQ, NGT_UQ, GT_OQ, NLT_UQ.
EXTRACT_SUM(·avxExtractSumEq, $0x08)
EXTRACT_SUM(·avxExtractSumNe, $0x0C)
EXTRACT_SUM(·avxExtractSumLt, $0x11)
EXTRACT_SUM(·avxExtractSumLe, $0x1A)
EXTRACT_SUM(·avxExtractSumGt, $0x1E)
EXTRACT_SUM(·avxExtractSumGe, $0x15)

// func avxCountCodes(codes []int32, mask *[8]uint32) int64
// The string COUNT slide: a code passes iff bit code&31 of mask word
// code>>5 is set — a pass table of at most 256 codes folded into one
// register. Per 8 codes: VPSRLD picks each code's word index, VPERMD
// fetches that bitmap word into the code's lane, VPSRLVD shifts its bit
// down to bit 0, and the pass bit adds into a dword count. Two vectors
// (16 codes) per main-loop iteration with independent accumulators, one
// 8-code step for the remainder. Every code must be < 256: VPERMD reads
// only the low 3 bits of the word index, so a larger code would alias.
// A dword lane counts at most len/8 codes and the total at most len,
// which a slice of int32 positions keeps below 2^31.
TEXT ·avxCountCodes(SB), NOSPLIT, $0-40
	MOVQ         codes_base+0(FP), SI
	MOVQ         codes_len+8(FP), CX
	MOVQ         mask+24(FP), DI
	VMOVDQU      (DI), Y8           // the pass bitmap
	MOVL         $31, AX
	VMOVQ        AX, X9
	VPBROADCASTD X9, Y9             // bit-index mask
	MOVL         $1, AX
	VMOVQ        AX, X10
	VPBROADCASTD X10, Y10           // pass-bit mask
	VPXOR        Y0, Y0, Y0         // counts a
	VPXOR        Y1, Y1, Y1         // counts b
	CMPQ         CX, $16
	JL           cctail

ccloop16:
	VMOVDQU (SI), Y2
	VMOVDQU 32(SI), Y3
	VPSRLD  $5, Y2, Y4              // word index code>>5
	VPSRLD  $5, Y3, Y5
	VPERMD  Y8, Y4, Y4              // the bitmap word of each code
	VPERMD  Y8, Y5, Y5
	VPAND   Y9, Y2, Y2              // bit index code&31
	VPAND   Y9, Y3, Y3
	VPSRLVD Y2, Y4, Y4              // word >> bit index
	VPSRLVD Y3, Y5, Y5
	VPAND   Y10, Y4, Y4             // the pass bit
	VPAND   Y10, Y5, Y5
	VPADDD  Y4, Y0, Y0
	VPADDD  Y5, Y1, Y1
	ADDQ    $64, SI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     ccloop16

cctail:
	TESTQ   CX, CX
	JZ      ccreduce
	VMOVDQU (SI), Y2
	VPSRLD  $5, Y2, Y4
	VPERMD  Y8, Y4, Y4
	VPAND   Y9, Y2, Y2
	VPSRLVD Y2, Y4, Y4
	VPAND   Y10, Y4, Y4
	VPADDD  Y4, Y0, Y0

ccreduce:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x55, X0, X1
	VPADDD       X1, X0, X0
	VZEROUPPER
	VMOVQ        X0, AX
	MOVL         AX, AX             // the low dword: the count
	MOVQ         AX, ret+32(FP)
	RET
