//go:build amd64 && !noasm

#include "textflag.h"

// maskTab is a sliding window of dword masks: loading 32 bytes at offset
// (8-k)*4 yields k leading 0xffffffff lanes followed by zeros, selecting
// the k-element tail of a vector for VMASKMOVPS.
DATA maskTab<>+0x00(SB)/4, $0xffffffff
DATA maskTab<>+0x04(SB)/4, $0xffffffff
DATA maskTab<>+0x08(SB)/4, $0xffffffff
DATA maskTab<>+0x0c(SB)/4, $0xffffffff
DATA maskTab<>+0x10(SB)/4, $0xffffffff
DATA maskTab<>+0x14(SB)/4, $0xffffffff
DATA maskTab<>+0x18(SB)/4, $0xffffffff
DATA maskTab<>+0x1c(SB)/4, $0xffffffff
DATA maskTab<>+0x20(SB)/4, $0x00000000
DATA maskTab<>+0x24(SB)/4, $0x00000000
DATA maskTab<>+0x28(SB)/4, $0x00000000
DATA maskTab<>+0x2c(SB)/4, $0x00000000
DATA maskTab<>+0x30(SB)/4, $0x00000000
DATA maskTab<>+0x34(SB)/4, $0x00000000
DATA maskTab<>+0x38(SB)/4, $0x00000000
DATA maskTab<>+0x3c(SB)/4, $0x00000000
GLOBL maskTab<>(SB), RODATA|NOPTR, $64

// func dotPanelAVX(x, b, out *float32, n, stride, rows int)
//
// out[r] = sum_i x[i]*b[r*stride+i], accumulated in 8 float32 lanes
// (lane = i mod 8, unfused VMULPS+VADDPS) folded sequentially l0..l7 —
// bit-identical to DotLanes. Four rows per pass share the x loads.
//
// Register map: SI=x, DI=panel cursor, DX=out cursor, R8=n,
// R9=stride bytes, R10=rows left, BX=main-loop byte bound, CX=tail count,
// R11=byte offset, R12..R15=row pointers, Y0..Y3=accumulators,
// Y4=x vector, Y5..Y8=row vectors, Y13=tail mask, X9..X12=fold temps.
TEXT ·dotPanelAVX(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ stride+32(FP), R9
	SHLQ $2, R9
	MOVQ rows+40(FP), R10

	MOVQ R8, BX
	ANDQ $-8, BX
	SHLQ $2, BX

	MOVQ R8, CX
	ANDQ $7, CX
	JZ   rows4
	MOVQ $8, AX
	SUBQ CX, AX
	SHLQ $2, AX
	LEAQ maskTab<>(SB), R11
	ADDQ AX, R11
	VMOVDQU (R11), Y13

rows4:
	CMPQ R10, $4
	JLT  rows1
	MOVQ DI, R12
	LEAQ (DI)(R9*1), R13
	LEAQ (R13)(R9*1), R14
	LEAQ (R14)(R9*1), R15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R11, R11
	CMPQ BX, $0
	JEQ  tail4

loop4:
	VMOVUPS (SI)(R11*1), Y4
	VMOVUPS (R12)(R11*1), Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0
	VMOVUPS (R13)(R11*1), Y6
	VMULPS  Y4, Y6, Y6
	VADDPS  Y6, Y1, Y1
	VMOVUPS (R14)(R11*1), Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  Y7, Y2, Y2
	VMOVUPS (R15)(R11*1), Y8
	VMULPS  Y4, Y8, Y8
	VADDPS  Y8, Y3, Y3
	ADDQ $32, R11
	CMPQ R11, BX
	JLT  loop4

tail4:
	CMPQ CX, $0
	JEQ  fold4
	VMASKMOVPS (SI)(R11*1), Y13, Y4
	VMASKMOVPS (R12)(R11*1), Y13, Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0
	VMASKMOVPS (R13)(R11*1), Y13, Y6
	VMULPS  Y4, Y6, Y6
	VADDPS  Y6, Y1, Y1
	VMASKMOVPS (R14)(R11*1), Y13, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  Y7, Y2, Y2
	VMASKMOVPS (R15)(R11*1), Y13, Y8
	VMULPS  Y4, Y8, Y8
	VADDPS  Y8, Y3, Y3

fold4:
	VEXTRACTF128 $1, Y0, X9
	VMOVSHDUP X0, X10
	VADDSS X10, X0, X11
	VPERMILPS $0xaa, X0, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X0, X10
	VADDSS X10, X11, X11
	VADDSS X9, X11, X11
	VMOVSHDUP X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xaa, X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X9, X10
	VADDSS X10, X11, X11
	VMOVSS X11, (DX)

	VEXTRACTF128 $1, Y1, X9
	VMOVSHDUP X1, X10
	VADDSS X10, X1, X11
	VPERMILPS $0xaa, X1, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X1, X10
	VADDSS X10, X11, X11
	VADDSS X9, X11, X11
	VMOVSHDUP X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xaa, X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X9, X10
	VADDSS X10, X11, X11
	VMOVSS X11, 4(DX)

	VEXTRACTF128 $1, Y2, X9
	VMOVSHDUP X2, X10
	VADDSS X10, X2, X11
	VPERMILPS $0xaa, X2, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X2, X10
	VADDSS X10, X11, X11
	VADDSS X9, X11, X11
	VMOVSHDUP X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xaa, X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X9, X10
	VADDSS X10, X11, X11
	VMOVSS X11, 8(DX)

	VEXTRACTF128 $1, Y3, X9
	VMOVSHDUP X3, X10
	VADDSS X10, X3, X11
	VPERMILPS $0xaa, X3, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X3, X10
	VADDSS X10, X11, X11
	VADDSS X9, X11, X11
	VMOVSHDUP X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xaa, X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X9, X10
	VADDSS X10, X11, X11
	VMOVSS X11, 12(DX)

	ADDQ $16, DX
	LEAQ (R15)(R9*1), DI
	SUBQ $4, R10
	JMP  rows4

rows1:
	CMPQ R10, $0
	JEQ  done
	VXORPS Y0, Y0, Y0
	XORQ R11, R11
	CMPQ BX, $0
	JEQ  tail1

loop1:
	VMOVUPS (SI)(R11*1), Y4
	VMOVUPS (DI)(R11*1), Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ $32, R11
	CMPQ R11, BX
	JLT  loop1

tail1:
	CMPQ CX, $0
	JEQ  fold1
	VMASKMOVPS (SI)(R11*1), Y13, Y4
	VMASKMOVPS (DI)(R11*1), Y13, Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0

fold1:
	VEXTRACTF128 $1, Y0, X9
	VMOVSHDUP X0, X10
	VADDSS X10, X0, X11
	VPERMILPS $0xaa, X0, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X0, X10
	VADDSS X10, X11, X11
	VADDSS X9, X11, X11
	VMOVSHDUP X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xaa, X9, X10
	VADDSS X10, X11, X11
	VPERMILPS $0xff, X9, X10
	VADDSS X10, X11, X11
	VMOVSS X11, (DX)

	ADDQ $4, DX
	ADDQ R9, DI
	DECQ R10
	JMP  rows1

done:
	VZEROUPPER
	RET

// FOLD64 writes ((s0+s1)+s2)+s3 to off(DX), where lo holds lanes s0,s1
// and hi lanes s2,s3 of one float64 accumulator.
#define FOLD64(lo, hi, off) \
	VPERMILPD $1, lo, X13 \
	VADDSD    X13, lo, X13 \
	VADDSD    hi, X13, X13 \
	VPERMILPD $1, hi, X14 \
	VADDSD    X14, X13, X13 \
	VMOVSD    X13, off(DX)

// func dotPanel64AVX(x, b *float32, out *float64, n, stride, rows int)
//
// out[r] = sum_i float64(x[i])*float64(b[r*stride+i]), accumulated in 4
// float64 lanes (lane = i mod 4 over the whole groups of four, unfused
// VMULPD+VADDPD; the n mod 4 tail elements added to lane 0 in order) and
// folded ((s0+s1)+s2)+s3 — bit-identical to Dot. Four rows per pass share
// the converted x.
//
// Register map: SI=x, DI=panel cursor, DX=out cursor, R8=n bytes,
// R9=stride bytes, R10=rows left, BX=main-loop byte bound, R11=byte
// offset, R12..R15=row pointers, Y0..Y3=accumulators (X0..X3 their low
// halves, lanes 0-1), Y4=x vector, Y5..Y8=row vectors, X9..X12=high
// halves (lanes 2-3) split off before the scalar tail, X13..X14=fold
// temps.
TEXT ·dotPanel64AVX(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ stride+32(FP), R9
	SHLQ $2, R9
	MOVQ rows+40(FP), R10

	MOVQ R8, BX
	ANDQ $-4, BX
	SHLQ $2, BX
	SHLQ $2, R8

d64rows4:
	CMPQ R10, $4
	JLT  d64rows1
	MOVQ DI, R12
	LEAQ (DI)(R9*1), R13
	LEAQ (R13)(R9*1), R14
	LEAQ (R14)(R9*1), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R11, R11
	CMPQ BX, $0
	JEQ  d64split4

d64loop4:
	VCVTPS2PD (SI)(R11*1), Y4
	VCVTPS2PD (R12)(R11*1), Y5
	VMULPD    Y4, Y5, Y5
	VADDPD    Y5, Y0, Y0
	VCVTPS2PD (R13)(R11*1), Y6
	VMULPD    Y4, Y6, Y6
	VADDPD    Y6, Y1, Y1
	VCVTPS2PD (R14)(R11*1), Y7
	VMULPD    Y4, Y7, Y7
	VADDPD    Y7, Y2, Y2
	VCVTPS2PD (R15)(R11*1), Y8
	VMULPD    Y4, Y8, Y8
	VADDPD    Y8, Y3, Y3
	ADDQ $16, R11
	CMPQ R11, BX
	JLT  d64loop4

d64split4:
	VEXTRACTF128 $1, Y0, X9
	VEXTRACTF128 $1, Y1, X10
	VEXTRACTF128 $1, Y2, X11
	VEXTRACTF128 $1, Y3, X12

d64tail4:
	CMPQ R11, R8
	JGE  d64fold4
	VCVTSS2SD (SI)(R11*1), X4, X4
	VCVTSS2SD (R12)(R11*1), X5, X5
	VMULSD    X4, X5, X5
	VADDSD    X5, X0, X0
	VCVTSS2SD (R13)(R11*1), X6, X6
	VMULSD    X4, X6, X6
	VADDSD    X6, X1, X1
	VCVTSS2SD (R14)(R11*1), X7, X7
	VMULSD    X4, X7, X7
	VADDSD    X7, X2, X2
	VCVTSS2SD (R15)(R11*1), X8, X8
	VMULSD    X4, X8, X8
	VADDSD    X8, X3, X3
	ADDQ $4, R11
	JMP  d64tail4

d64fold4:
	FOLD64(X0, X9, 0)
	FOLD64(X1, X10, 8)
	FOLD64(X2, X11, 16)
	FOLD64(X3, X12, 24)
	ADDQ $32, DX
	LEAQ (R15)(R9*1), DI
	SUBQ $4, R10
	JMP  d64rows4

d64rows1:
	CMPQ R10, $0
	JEQ  d64done
	VXORPD Y0, Y0, Y0
	XORQ R11, R11
	CMPQ BX, $0
	JEQ  d64split1

d64loop1:
	VCVTPS2PD (SI)(R11*1), Y4
	VCVTPS2PD (DI)(R11*1), Y5
	VMULPD    Y4, Y5, Y5
	VADDPD    Y5, Y0, Y0
	ADDQ $16, R11
	CMPQ R11, BX
	JLT  d64loop1

d64split1:
	VEXTRACTF128 $1, Y0, X9

d64tail1:
	CMPQ R11, R8
	JGE  d64fold1
	VCVTSS2SD (SI)(R11*1), X4, X4
	VCVTSS2SD (DI)(R11*1), X5, X5
	VMULSD    X4, X5, X5
	VADDSD    X5, X0, X0
	ADDQ $4, R11
	JMP  d64tail1

d64fold1:
	FOLD64(X0, X9, 0)
	ADDQ $8, DX
	ADDQ R9, DI
	DECQ R10
	JMP  d64rows1

d64done:
	VZEROUPPER
	RET

// Broadcast constant tables for the cosine kernel (8 × float32 each).
#define COSCONST(name, bits) \
	DATA name<>+0x00(SB)/4, $bits \
	DATA name<>+0x04(SB)/4, $bits \
	DATA name<>+0x08(SB)/4, $bits \
	DATA name<>+0x0c(SB)/4, $bits \
	DATA name<>+0x10(SB)/4, $bits \
	DATA name<>+0x14(SB)/4, $bits \
	DATA name<>+0x18(SB)/4, $bits \
	DATA name<>+0x1c(SB)/4, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

COSCONST(cosInvPiV, 0x3ea2f983)
COSCONST(cosPiHiV, 0x40490000)
COSCONST(cosPiLoV, 0x3a7daa22)
COSCONST(cosC6V, 0x310f76c7)
COSCONST(cosC5V, 0xb493f27e)
COSCONST(cosC4V, 0x37d00d01)
COSCONST(cosC3V, 0xbab60b61)
COSCONST(cosC2V, 0x3d2aaaab)
COSCONST(cosC1V, 0xbf000000)
COSCONST(cosOneV, 0x3f800000)

// func cosIntoAVX2(dst, pre, bias *float32, n int)
//
// dst[i] = Cos32(pre[i] + bias[i]), eight lanes per step: x·(1/π) rounded
// to even gives the half-period index n; r = x − n·πhi − n·πlo; a
// degree-12 even Taylor polynomial in r² gives cos(r); the parity of n
// flips the sign bit. Identical single-rounded float32 ops to the scalar
// Cos32, so results match bitwise.
//
// Registers: DI=dst, SI=pre, DX=bias, R8=n, R9=byte offset, BX=main
// bound, CX=tail count, Y10=tail mask, Y11..Y15 working.
TEXT ·cosIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ pre+8(FP), SI
	MOVQ bias+16(FP), DX
	MOVQ n+24(FP), R8

	MOVQ R8, BX
	ANDQ $-8, BX
	SHLQ $2, BX

	MOVQ R8, CX
	ANDQ $7, CX
	JZ   noctail
	MOVQ $8, AX
	SUBQ CX, AX
	SHLQ $2, AX
	LEAQ maskTab<>(SB), R9
	ADDQ AX, R9
	VMOVDQU (R9), Y10

noctail:
	XORQ R9, R9
	CMPQ BX, $0
	JEQ  ctail

closs:
	VMOVUPS (SI)(R9*1), Y15
	VADDPS  (DX)(R9*1), Y15, Y15

	VMULPS   cosInvPiV<>(SB), Y15, Y14
	VROUNDPS $0, Y14, Y14
	VMULPS   cosPiHiV<>(SB), Y14, Y13
	VSUBPS   Y13, Y15, Y15
	VMULPS   cosPiLoV<>(SB), Y14, Y13
	VSUBPS   Y13, Y15, Y15
	VMULPS   Y15, Y15, Y13

	VMOVUPS cosC6V<>(SB), Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC5V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC4V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC3V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC2V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC1V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosOneV<>(SB), Y12, Y12

	VCVTTPS2DQ Y14, Y11
	VPSLLD     $31, Y11, Y11
	VXORPS     Y11, Y12, Y12

	VMOVUPS Y12, (DI)(R9*1)
	ADDQ $32, R9
	CMPQ R9, BX
	JLT  closs

ctail:
	CMPQ CX, $0
	JEQ  cdone
	VMASKMOVPS (SI)(R9*1), Y10, Y15
	VMASKMOVPS (DX)(R9*1), Y10, Y13
	VADDPS  Y13, Y15, Y15

	VMULPS   cosInvPiV<>(SB), Y15, Y14
	VROUNDPS $0, Y14, Y14
	VMULPS   cosPiHiV<>(SB), Y14, Y13
	VSUBPS   Y13, Y15, Y15
	VMULPS   cosPiLoV<>(SB), Y14, Y13
	VSUBPS   Y13, Y15, Y15
	VMULPS   Y15, Y15, Y13

	VMOVUPS cosC6V<>(SB), Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC5V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC4V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC3V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC2V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosC1V<>(SB), Y12, Y12
	VMULPS  Y13, Y12, Y12
	VADDPS  cosOneV<>(SB), Y12, Y12

	VCVTTPS2DQ Y14, Y11
	VPSLLD     $31, Y11, Y11
	VXORPS     Y11, Y12, Y12

	VMASKMOVPS Y12, Y10, (DI)(R9*1)

cdone:
	VZEROUPPER
	RET
