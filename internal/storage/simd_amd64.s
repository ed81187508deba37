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
	MOVQ         X0, AX
	MOVQ         AX, ret+24(FP)
	RET

// func avxMinMaxInt64(v []int64, lanes *[8]int64)
// lanes[0:4] = per-lane minima, lanes[4:8] = per-lane maxima.
TEXT ·avxMinMaxInt64(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         lanes+24(FP), DI
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	MOVQ         AX, X0
	VPBROADCASTQ X0, Y0             // running minima = MaxInt64
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X1
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
	MOVQ         AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ         $0xFFF0000000000000, AX // -Inf
	MOVQ         AX, X1
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
	MOVQ         X2, AX
	MOVQ         AX, cnt+48(FP)
	MOVQ         X0, AX
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
	MOVQ         AX, X0
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
	MOVQ         X2, AX
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
	MOVQ         AX, X0
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
	MOVQ         X2, AX
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
	MOVQ         AX, X0
	VPBROADCASTD X0, Y11
	VMOVDQU      iota8<>(SB), Y12
	VPADDD       Y12, Y11, Y11      // positions {base..base+7}
	MOVL         $8, AX
	MOVQ         AX, X0
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
	MOVQ         AX, X0
	VPBROADCASTD X0, Y11
	VMOVDQU      iota8<>(SB), Y12
	VPADDD       Y12, Y11, Y11
	MOVL         $8, AX
	MOVQ         AX, X0
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
