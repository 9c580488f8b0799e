//go:build amd64 && !noasm

#include "textflag.h"

// Packed-kernel constants.
//
// nibMaskV: 0x0F in every byte — nibble extraction for the W4
// sign-extension shuffle.
DATA nibMaskV<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMaskV<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMaskV<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMaskV<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMaskV<>(SB), RODATA|NOPTR, $32

// sxLUTV: sign-extension of each 4-bit two's-complement index to a byte
// (0..7 → 0..7, 8..15 → −8..−1), per 128-bit lane.
DATA sxLUTV<>+0x00(SB)/8, $0x0706050403020100
DATA sxLUTV<>+0x08(SB)/8, $0xfffefdfcfbfaf9f8
DATA sxLUTV<>+0x10(SB)/8, $0x0706050403020100
DATA sxLUTV<>+0x18(SB)/8, $0xfffefdfcfbfaf9f8
GLOBL sxLUTV<>(SB), RODATA|NOPTR, $32

// absMaskV: 0x7fffffff in every dword — clears float32 sign bits.
DATA absMaskV<>+0x00(SB)/8, $0x7fffffff7fffffff
DATA absMaskV<>+0x08(SB)/8, $0x7fffffff7fffffff
DATA absMaskV<>+0x10(SB)/8, $0x7fffffff7fffffff
DATA absMaskV<>+0x18(SB)/8, $0x7fffffff7fffffff
GLOBL absMaskV<>(SB), RODATA|NOPTR, $32

// func dotBytesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)
//
// Per row, Σ a_i·q_i over n·8 signed bytes (n a multiple of 4 words):
// the query is sign-extended to int16 once per step (VPMOVSXBW, Y8/Y9)
// and multiplied pairwise (VPMADDWD) into four independent int32
// accumulators; lanes widen to int64 at the fold. The caller bounds total
// elements (maxSIMDDim) so int32 lanes never overflow.
TEXT ·dotBytesPanel4AVX2(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R12
	MOVQ q+32(FP), SI
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R11, R11

dbploop:
	VPMOVSXBW (SI)(R11*1), Y8
	VPMOVSXBW 16(SI)(R11*1), Y9

	VPMOVSXBW (R8)(R11*1), Y10
	VPMOVSXBW 16(R8)(R11*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y0, Y0
	VPADDD    Y11, Y0, Y0

	VPMOVSXBW (R9)(R11*1), Y10
	VPMOVSXBW 16(R9)(R11*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y1, Y1
	VPADDD    Y11, Y1, Y1

	VPMOVSXBW (R10)(R11*1), Y10
	VPMOVSXBW 16(R10)(R11*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y2, Y2
	VPADDD    Y11, Y2, Y2

	VPMOVSXBW (R12)(R11*1), Y10
	VPMOVSXBW 16(R12)(R11*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y3, Y3
	VPADDD    Y11, Y3, Y3

	ADDQ $32, R11
	CMPQ R11, CX
	JLT  dbploop

	MOVQ out+48(FP), DX
	VEXTRACTI128 $1, Y0, X8
	VPMOVSXDQ    X0, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, (DX)
	VEXTRACTI128 $1, Y1, X8
	VPMOVSXDQ    X1, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 8(DX)
	VEXTRACTI128 $1, Y2, X8
	VPMOVSXDQ    X2, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 16(DX)
	VEXTRACTI128 $1, Y3, X8
	VPMOVSXDQ    X3, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 24(DX)
	VZEROUPPER
	RET

// func dotNibblesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)
//
// Per row, Σ a_i·q_i over n·16 signed nibbles (n a multiple of 4 words):
// nibbles are split out with mask/shift and sign-extended to bytes via
// the sxLUT shuffle. The query chunk is expanded once per step into four
// int16 vectors (lo/hi nibble streams × 128-bit halves, Y11–Y14) and
// multiplied into four independent int32 accumulators. Element i of a
// row's low nibble stream aligns with element i of the query's, so the
// two streams cover the chunk exactly.
TEXT ·dotNibblesPanel4AVX2(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R12
	MOVQ q+32(FP), SI
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	VMOVDQU nibMaskV<>(SB), Y7
	VMOVDQU sxLUTV<>(SB), Y6
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	XORQ    R11, R11

dnploop:
	VMOVDQU      (SI)(R11*1), Y8
	VPAND        Y7, Y8, Y9
	VPSRLW       $4, Y8, Y10
	VPAND        Y7, Y10, Y10
	VPSHUFB      Y9, Y6, Y9
	VPSHUFB      Y10, Y6, Y10
	VEXTRACTI128 $1, Y9, X15
	VPMOVSXBW    X9, Y11
	VPMOVSXBW    X15, Y12
	VEXTRACTI128 $1, Y10, X15
	VPMOVSXBW    X10, Y13
	VPMOVSXBW    X15, Y14

	VMOVDQU      (R8)(R11*1), Y8
	VPAND        Y7, Y8, Y9
	VPSRLW       $4, Y8, Y10
	VPAND        Y7, Y10, Y10
	VPSHUFB      Y9, Y6, Y9
	VPSHUFB      Y10, Y6, Y10
	VEXTRACTI128 $1, Y9, X15
	VPMOVSXBW    X9, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y11, Y8, Y8
	VPMADDWD     Y12, Y9, Y9
	VPADDD       Y8, Y0, Y0
	VPADDD       Y9, Y0, Y0
	VEXTRACTI128 $1, Y10, X15
	VPMOVSXBW    X10, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y13, Y8, Y8
	VPMADDWD     Y14, Y9, Y9
	VPADDD       Y8, Y0, Y0
	VPADDD       Y9, Y0, Y0

	VMOVDQU      (R9)(R11*1), Y8
	VPAND        Y7, Y8, Y9
	VPSRLW       $4, Y8, Y10
	VPAND        Y7, Y10, Y10
	VPSHUFB      Y9, Y6, Y9
	VPSHUFB      Y10, Y6, Y10
	VEXTRACTI128 $1, Y9, X15
	VPMOVSXBW    X9, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y11, Y8, Y8
	VPMADDWD     Y12, Y9, Y9
	VPADDD       Y8, Y1, Y1
	VPADDD       Y9, Y1, Y1
	VEXTRACTI128 $1, Y10, X15
	VPMOVSXBW    X10, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y13, Y8, Y8
	VPMADDWD     Y14, Y9, Y9
	VPADDD       Y8, Y1, Y1
	VPADDD       Y9, Y1, Y1

	VMOVDQU      (R10)(R11*1), Y8
	VPAND        Y7, Y8, Y9
	VPSRLW       $4, Y8, Y10
	VPAND        Y7, Y10, Y10
	VPSHUFB      Y9, Y6, Y9
	VPSHUFB      Y10, Y6, Y10
	VEXTRACTI128 $1, Y9, X15
	VPMOVSXBW    X9, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y11, Y8, Y8
	VPMADDWD     Y12, Y9, Y9
	VPADDD       Y8, Y2, Y2
	VPADDD       Y9, Y2, Y2
	VEXTRACTI128 $1, Y10, X15
	VPMOVSXBW    X10, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y13, Y8, Y8
	VPMADDWD     Y14, Y9, Y9
	VPADDD       Y8, Y2, Y2
	VPADDD       Y9, Y2, Y2

	VMOVDQU      (R12)(R11*1), Y8
	VPAND        Y7, Y8, Y9
	VPSRLW       $4, Y8, Y10
	VPAND        Y7, Y10, Y10
	VPSHUFB      Y9, Y6, Y9
	VPSHUFB      Y10, Y6, Y10
	VEXTRACTI128 $1, Y9, X15
	VPMOVSXBW    X9, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y11, Y8, Y8
	VPMADDWD     Y12, Y9, Y9
	VPADDD       Y8, Y3, Y3
	VPADDD       Y9, Y3, Y3
	VEXTRACTI128 $1, Y10, X15
	VPMOVSXBW    X10, Y8
	VPMOVSXBW    X15, Y9
	VPMADDWD     Y13, Y8, Y8
	VPMADDWD     Y14, Y9, Y9
	VPADDD       Y8, Y3, Y3
	VPADDD       Y9, Y3, Y3

	ADDQ $32, R11
	CMPQ R11, CX
	JLT  dnploop

	MOVQ out+48(FP), DX
	VEXTRACTI128 $1, Y0, X8
	VPMOVSXDQ    X0, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, (DX)
	VEXTRACTI128 $1, Y1, X8
	VPMOVSXDQ    X1, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 8(DX)
	VEXTRACTI128 $1, Y2, X8
	VPMOVSXDQ    X2, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 16(DX)
	VEXTRACTI128 $1, Y3, X8
	VPMOVSXDQ    X3, Y9
	VPMOVSXDQ    X8, Y10
	VPADDQ       Y10, Y9, Y9
	VEXTRACTI128 $1, Y9, X8
	VPADDQ       X8, X9, X9
	VPSRLDQ      $8, X9, X8
	VPADDQ       X8, X9, X9
	MOVQ         X9, 24(DX)
	VZEROUPPER
	RET

// func dotShortsPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)
//
// Per row, Σ a_i·q_i over n·4 signed int16 (n a multiple of 4 words),
// sharing the query load. Each VPMADDWD lane holds the sum of two int16
// products — up to 2^31−2^18+2, which fits int32 but cannot be
// accumulated there — so every step widens to int64 before adding.
TEXT ·dotShortsPanel4AVX2(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R12
	MOVQ q+32(FP), SI
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R11, R11

dsploop:
	VMOVDQU (SI)(R11*1), Y8

	VMOVDQU      (R8)(R11*1), Y9
	VPMADDWD     Y8, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPMOVSXDQ    X9, Y11
	VPMOVSXDQ    X10, Y12
	VPADDQ       Y11, Y0, Y0
	VPADDQ       Y12, Y0, Y0

	VMOVDQU      (R9)(R11*1), Y9
	VPMADDWD     Y8, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPMOVSXDQ    X9, Y11
	VPMOVSXDQ    X10, Y12
	VPADDQ       Y11, Y1, Y1
	VPADDQ       Y12, Y1, Y1

	VMOVDQU      (R10)(R11*1), Y9
	VPMADDWD     Y8, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPMOVSXDQ    X9, Y11
	VPMOVSXDQ    X10, Y12
	VPADDQ       Y11, Y2, Y2
	VPADDQ       Y12, Y2, Y2

	VMOVDQU      (R12)(R11*1), Y9
	VPMADDWD     Y8, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPMOVSXDQ    X9, Y11
	VPMOVSXDQ    X10, Y12
	VPADDQ       Y11, Y3, Y3
	VPADDQ       Y12, Y3, Y3

	ADDQ $32, R11
	CMPQ R11, CX
	JLT  dsploop

	MOVQ out+48(FP), DX
	VEXTRACTI128 $1, Y0, X8
	VPADDQ       X8, X0, X0
	VPSRLDQ      $8, X0, X8
	VPADDQ       X8, X0, X0
	MOVQ         X0, (DX)
	VEXTRACTI128 $1, Y1, X8
	VPADDQ       X8, X1, X1
	VPSRLDQ      $8, X1, X8
	VPADDQ       X8, X1, X1
	MOVQ         X1, 8(DX)
	VEXTRACTI128 $1, Y2, X8
	VPADDQ       X8, X2, X2
	VPSRLDQ      $8, X2, X8
	VPADDQ       X8, X2, X2
	MOVQ         X2, 16(DX)
	VEXTRACTI128 $1, Y3, X8
	VPADDQ       X8, X3, X3
	VPSRLDQ      $8, X3, X8
	VPADDQ       X8, X3, X3
	MOVQ         X3, 24(DX)
	VZEROUPPER
	RET

// func dotLanes32Panel4AVX(a0, a1, a2, a3, q *uint64, ng int, lanes *[16]float64)
//
// The W32 lane kernel: ng groups of 4 int32 are converted to float64
// (the query once per group, shared by the rows), multiplied, and
// accumulated vertically into 4 lanes per row (lane = element index mod
// 4) — exactly the Go dot32LanesPanelGo contract, group by group, so the
// result is bit-identical by construction. Row r's lanes land at
// lanes[4r..4r+3].
TEXT ·dotLanes32Panel4AVX(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R12
	MOVQ q+32(FP), SI
	MOVQ ng+40(FP), CX
	SHLQ $4, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R11, R11

dlploop:
	VCVTDQ2PD (SI)(R11*1), Y8
	VCVTDQ2PD (R8)(R11*1), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y0, Y0
	VCVTDQ2PD (R9)(R11*1), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y1, Y1
	VCVTDQ2PD (R10)(R11*1), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y2, Y2
	VCVTDQ2PD (R12)(R11*1), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y3, Y3
	ADDQ      $16, R11
	CMPQ      R11, CX
	JLT       dlploop

	MOVQ    lanes+48(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func maxAbsAVX(x *float32, n int) float32
//
// max |x_i| over the non-NaN x_i of n floats (n a multiple of 8), 0 if
// there are none: sign bits cleared with absMask, four VMAXPS
// accumulators over 32-float steps so the chains overlap, the last n mod
// 32 floats into the first, then a VMAXPS tree fold. Each step names the
// accumulator as VMAXPS's second source, the operand MAXPS returns when
// either is NaN, so a NaN lane leaves the accumulator as it was — the
// scalar loop's f > m skip — and no accumulator is ever NaN. With the
// signs cleared and no NaN, max is exact in any order.
TEXT ·maxAbsAVX(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	SHLQ $2, CX
	VMOVUPS absMaskV<>(SB), Y7
	VXORPS  Y0, Y0, Y0
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	XORQ    R11, R11
	MOVQ    CX, DX
	ANDQ    $-128, DX
	JZ      matail

ma4loop:
	VANDPS  (SI)(R11*1), Y7, Y1
	VMAXPS  Y0, Y1, Y0
	VANDPS  32(SI)(R11*1), Y7, Y1
	VMAXPS  Y2, Y1, Y2
	VANDPS  64(SI)(R11*1), Y7, Y1
	VMAXPS  Y3, Y1, Y3
	VANDPS  96(SI)(R11*1), Y7, Y1
	VMAXPS  Y4, Y1, Y4
	ADDQ    $128, R11
	CMPQ    R11, DX
	JLT     ma4loop

matail:
	CMPQ    R11, CX
	JGE     mafold
	VANDPS  (SI)(R11*1), Y7, Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $32, R11
	JMP     matail

mafold:
	VMAXPS       Y2, Y0, Y0
	VMAXPS       Y4, Y3, Y3
	VMAXPS       Y3, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xee, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VMAXSS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func packSignsAVX(dst *uint64, x *float32, nw int)
//
// Packs the sign pattern of nw·64 floats: bit = 1 iff x_i >= 0, via
// VCMPPS GE_OQ (imm 0x1d) against zero — the same predicate as Go's
// x >= 0, including −0.0 ⇒ 1 and NaN ⇒ 0 — and VMOVMSKPS byte gathers.
TEXT ·packSignsAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ nw+16(FP), CX
	VXORPS Y7, Y7, Y7

psloop:
	VMOVUPS   (SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, AX
	VMOVUPS   32(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $8, BX
	ORQ       BX, AX
	VMOVUPS   64(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $16, BX
	ORQ       BX, AX
	VMOVUPS   96(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $24, BX
	ORQ       BX, AX
	VMOVUPS   128(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $32, BX
	ORQ       BX, AX
	VMOVUPS   160(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $40, BX
	ORQ       BX, AX
	VMOVUPS   192(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $48, BX
	ORQ       BX, AX
	VMOVUPS   224(SI), Y1
	VCMPPS    $0x1d, Y7, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ      $56, BX
	ORQ       BX, AX
	MOVQ      AX, (DI)
	ADDQ      $256, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       psloop

	VZEROUPPER
	RET

// func quantizeI8AVX(dst *uint64, x *float32, n int, scale, maxQ float64)
//
// 16 elements per step: float32 → float64 (exact), IEEE double divide by
// scale, VROUNDPD $0 (round to nearest even = math.RoundToEven), clamp
// to ±maxQ, truncate to int32 (exact on integral values), pack to int8.
// Values are already clamped, so the pack saturation never fires. Every
// operation rounds identically to the scalar quantizer, so the bytes are
// bit-identical.
TEXT ·quantizeI8AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD scale+24(FP), Y14
	VBROADCASTSD maxQ+32(FP), Y13
	VXORPD       Y12, Y12, Y12
	VSUBPD       Y13, Y12, Y12

q8loop:
	VCVTPS2PD  (SI), Y0
	VCVTPS2PD  16(SI), Y1
	VCVTPS2PD  32(SI), Y2
	VCVTPS2PD  48(SI), Y3
	VDIVPD     Y14, Y0, Y0
	VDIVPD     Y14, Y1, Y1
	VDIVPD     Y14, Y2, Y2
	VDIVPD     Y14, Y3, Y3
	VROUNDPD   $0, Y0, Y0
	VROUNDPD   $0, Y1, Y1
	VROUNDPD   $0, Y2, Y2
	VROUNDPD   $0, Y3, Y3
	VMINPD     Y13, Y0, Y0
	VMINPD     Y13, Y1, Y1
	VMINPD     Y13, Y2, Y2
	VMINPD     Y13, Y3, Y3
	VMAXPD     Y12, Y0, Y0
	VMAXPD     Y12, Y1, Y1
	VMAXPD     Y12, Y2, Y2
	VMAXPD     Y12, Y3, Y3
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VCVTTPD2DQY Y2, X2
	VCVTTPD2DQY Y3, X3
	VPACKSSDW  X1, X0, X0
	VPACKSSDW  X3, X2, X2
	VPACKSSWB  X2, X0, X0
	VMOVDQU    X0, (DI)
	ADDQ       $64, SI
	ADDQ       $16, DI
	SUBQ       $16, CX
	JNZ        q8loop

	VZEROUPPER
	RET

// func quantizeI16AVX(dst *uint64, x *float32, n int, scale, maxQ float64)
//
// quantizeI8AVX at int16 granularity: 8 elements per step, one VPACKSSDW.
TEXT ·quantizeI16AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD scale+24(FP), Y14
	VBROADCASTSD maxQ+32(FP), Y13
	VXORPD       Y12, Y12, Y12
	VSUBPD       Y13, Y12, Y12

q16loop:
	VCVTPS2PD  (SI), Y0
	VCVTPS2PD  16(SI), Y1
	VDIVPD     Y14, Y0, Y0
	VDIVPD     Y14, Y1, Y1
	VROUNDPD   $0, Y0, Y0
	VROUNDPD   $0, Y1, Y1
	VMINPD     Y13, Y0, Y0
	VMINPD     Y13, Y1, Y1
	VMAXPD     Y12, Y0, Y0
	VMAXPD     Y12, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPACKSSDW  X1, X0, X0
	VMOVDQU    X0, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	SUBQ       $8, CX
	JNZ        q16loop

	VZEROUPPER
	RET

// func quantizeI32AVX(dst *uint64, x *float32, n int, scale, maxQ float64)
//
// quantizeI8AVX at int32 granularity: 4 elements per step, stored direct.
TEXT ·quantizeI32AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD scale+24(FP), Y14
	VBROADCASTSD maxQ+32(FP), Y13
	VXORPD       Y12, Y12, Y12
	VSUBPD       Y13, Y12, Y12

q32loop:
	VCVTPS2PD  (SI), Y0
	VDIVPD     Y14, Y0, Y0
	VROUNDPD   $0, Y0, Y0
	VMINPD     Y13, Y0, Y0
	VMAXPD     Y12, Y0, Y0
	VCVTTPD2DQY Y0, X0
	VMOVDQU    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        q32loop

	VZEROUPPER
	RET
