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

// FOLD64 writes ((s0+s1)+s2)+s3 to dst, where lo holds lanes s0,s1 and
// hi lanes s2,s3 of one float64 accumulator.
#define FOLD64(lo, hi, dst) \
	VPERMILPD $1, lo, X13 \
	VADDSD    X13, lo, X13 \
	VADDSD    hi, X13, X13 \
	VPERMILPD $1, hi, X14 \
	VADDSD    X14, X13, X13 \
	VMOVSD    X13, dst

// P64STEP adds one lane group to a pass of eight rows: BX points at the
// group's row 0 (32 bytes per row) and Y8 holds the group's widened query
// elements; Y0..Y7 accumulate rows 0..7.
#define P64STEP \
	VFMADD231PD 0(BX), Y8, Y0 \
	VFMADD231PD 32(BX), Y8, Y1 \
	VFMADD231PD 64(BX), Y8, Y2 \
	VFMADD231PD 96(BX), Y8, Y3 \
	VFMADD231PD 128(BX), Y8, Y4 \
	VFMADD231PD 160(BX), Y8, Y5 \
	VFMADD231PD 192(BX), Y8, Y6 \
	VFMADD231PD 224(BX), Y8, Y7

// P64STORE folds accumulator acc (lo its low half) into off(DX) and
// returns once the last real row is stored.
#define P64STORE(acc, lo, off) \
	VEXTRACTF128 $1, acc, X9 \
	FOLD64(lo, X9, off(DX)) \
	DECQ R10 \
	JZ   p64done

// func dots64FMA(x *float32, p, out *float64, n, stride, rows int)
//
// Panel64.Dots: out[r] = sum_i float64(x[i])*p[row r, i] in 4 float64
// lanes (lane = i mod 4 over the whole groups of four), folded
// ((s0+s1)+s2)+s3. Each pass runs eight panel rows over every lane group:
// one VCVTPS2PD of the query group, then one VFMADD231PD per row. A
// float32×float32 product is exact in float64, so the fused multiply-add
// rounds exactly where Dot's multiply and add do. The n mod 4 tail
// elements are groups of their own whose panel lanes 1-3 are zero, and
// VMOVSS zeroes the query's lanes 1-3, so they land in lane 0 in order and
// lanes 1-3 gain +0 (an accumulator starting at +0 is never -0). Padding
// rows are computed but not stored — bit-identical to Dot.
//
// Register map: SI=x, DI=pass base, DX=out cursor, R8=n, R9=group stride
// bytes, R10=rows left, AX=x cursor, BX=group cursor, CX=count,
// Y0..Y7=accumulators, Y8=query group, X9=high half, X13..X14=fold temps.
TEXT ·dots64FMA(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ stride+32(FP), R9
	SHLQ $5, R9
	MOVQ rows+40(FP), R10

p64pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R8, CX
	SHRQ $2, CX
	JZ   p64tail

p64loop:
	VCVTPS2PD (AX), Y8
	P64STEP
	ADDQ $16, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  p64loop

p64tail:
	MOVQ R8, CX
	ANDQ $3, CX
	JZ   p64fold

p64tloop:
	VMOVSS    (AX), X8
	VCVTPS2PD X8, Y8
	P64STEP
	ADDQ $4, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  p64tloop

p64fold:
	P64STORE(Y0, X0, 0)
	P64STORE(Y1, X1, 8)
	P64STORE(Y2, X2, 16)
	P64STORE(Y3, X3, 24)
	P64STORE(Y4, X4, 32)
	P64STORE(Y5, X5, 40)
	P64STORE(Y6, X6, 48)
	P64STORE(Y7, X7, 56)
	ADDQ $64, DX
	ADDQ $256, DI
	JMP  p64pass

p64done:
	VZEROUPPER
	RET

// P4STEP adds one lane group of query q to its four accumulators: Z0..Z3
// hold the group's eight panel rows, two rows per register.
#define P4STEP(q, a0, a1, a2, a3) \
	VFMADD231PD Z0, q, a0 \
	VFMADD231PD Z1, q, a1 \
	VFMADD231PD Z2, q, a2 \
	VFMADD231PD Z3, q, a3

// P4HALF folds the 256-bit half h of accumulator acc, one row of one
// query, into dst.
#define P4HALF(h, acc, dst) \
	VEXTRACTF64X4 $h, acc, Y8 \
	VEXTRACTF128  $1, Y8, X9 \
	FOLD64(X8, X9, dst)

// P4ROW stores the row at byte offset off for all four queries from half
// h of their accumulators, and returns once the last real row is stored.
#define P4ROW(h, a0, a1, a2, a3, off) \
	P4HALF(h, a0, off(DX)) \
	P4HALF(h, a1, off(DX)(R11*1)) \
	P4HALF(h, a2, off(DX)(R11*2)) \
	P4HALF(h, a3, off(DX)(R15*1)) \
	DECQ R10 \
	JZ   p4done

// func dots64x4AVX512(x0, x1, x2, x3 *float32, p, out *float64, n, stride, rows int)
//
// Panel64.Dots4: dots64FMA for four queries in one pass over the panel,
// out[q*rows+r] for query q. Each pass runs eight panel rows, four 512-bit
// loads per lane group with two rows in each; every query's group is
// widened once (VBROADCASTF128 puts it in both 128-bit halves, VCVTPS2PD
// widens the pair to both 256-bit halves) and feeds four FMAs, so sixteen
// accumulators hold eight rows of four queries. A tail element is VMOVSS,
// VCVTPS2PD and VINSERTF64X4 of the same zero-padded group dots64FMA
// uses. Each 256-bit half folds ((s0+s1)+s2)+s3 through FOLD64, so every
// output is bit-identical to Dot; padding rows are not stored.
//
// Register map: SI,R12,R13,R14=queries, AX=query byte offset, DI=pass
// base, BX=group cursor, CX=count, R8=n, R9=group stride bytes, R10=rows
// left, DX=out cursor, R11=output bytes per query, R15=3*R11, Z0..Z3=panel
// rows, Z4..Z7=queries, Z16..Z31=accumulators (query q rows 2j, 2j+1 in
// Z16+4q+j), X8,X9,X13,X14=fold temps.
TEXT ·dots64x4AVX512(SB), NOSPLIT, $0-72
	MOVQ x0+0(FP), SI
	MOVQ x1+8(FP), R12
	MOVQ x2+16(FP), R13
	MOVQ x3+24(FP), R14
	MOVQ p+32(FP), DI
	MOVQ out+40(FP), DX
	MOVQ n+48(FP), R8
	MOVQ stride+56(FP), R9
	SHLQ $5, R9
	MOVQ rows+64(FP), R10
	LEAQ (R10*8), R11
	LEAQ (R11)(R11*2), R15

p4pass:
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	XORQ AX, AX
	MOVQ DI, BX
	MOVQ R8, CX
	SHRQ $2, CX
	JZ   p4tail

p4loop:
	VMOVUPD        0(BX), Z0
	VMOVUPD        64(BX), Z1
	VMOVUPD        128(BX), Z2
	VMOVUPD        192(BX), Z3
	VBROADCASTF128 (SI)(AX*1), Y4
	VCVTPS2PD      Y4, Z4
	VBROADCASTF128 (R12)(AX*1), Y5
	VCVTPS2PD      Y5, Z5
	VBROADCASTF128 (R13)(AX*1), Y6
	VCVTPS2PD      Y6, Z6
	VBROADCASTF128 (R14)(AX*1), Y7
	VCVTPS2PD      Y7, Z7
	P4STEP(Z4, Z16, Z17, Z18, Z19)
	P4STEP(Z5, Z20, Z21, Z22, Z23)
	P4STEP(Z6, Z24, Z25, Z26, Z27)
	P4STEP(Z7, Z28, Z29, Z30, Z31)
	ADDQ $16, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  p4loop

p4tail:
	MOVQ R8, CX
	ANDQ $3, CX
	JZ   p4fold

p4tloop:
	VMOVUPD      0(BX), Z0
	VMOVUPD      64(BX), Z1
	VMOVUPD      128(BX), Z2
	VMOVUPD      192(BX), Z3
	VMOVSS       (SI)(AX*1), X4
	VCVTPS2PD    X4, Y4
	VINSERTF64X4 $1, Y4, Z4, Z4
	VMOVSS       (R12)(AX*1), X5
	VCVTPS2PD    X5, Y5
	VINSERTF64X4 $1, Y5, Z5, Z5
	VMOVSS       (R13)(AX*1), X6
	VCVTPS2PD    X6, Y6
	VINSERTF64X4 $1, Y6, Z6, Z6
	VMOVSS       (R14)(AX*1), X7
	VCVTPS2PD    X7, Y7
	VINSERTF64X4 $1, Y7, Z7, Z7
	P4STEP(Z4, Z16, Z17, Z18, Z19)
	P4STEP(Z5, Z20, Z21, Z22, Z23)
	P4STEP(Z6, Z24, Z25, Z26, Z27)
	P4STEP(Z7, Z28, Z29, Z30, Z31)
	ADDQ $4, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  p4tloop

p4fold:
	P4ROW(0, Z16, Z20, Z24, Z28, 0)
	P4ROW(1, Z16, Z20, Z24, Z28, 8)
	P4ROW(0, Z17, Z21, Z25, Z29, 16)
	P4ROW(1, Z17, Z21, Z25, Z29, 24)
	P4ROW(0, Z18, Z22, Z26, Z30, 32)
	P4ROW(1, Z18, Z22, Z26, Z30, 40)
	P4ROW(0, Z19, Z23, Z27, Z31, 48)
	P4ROW(1, Z19, Z23, Z27, Z31, 56)
	ADDQ $64, DX
	ADDQ $256, DI
	JMP  p4pass

p4done:
	VZEROUPPER
	RET

// Constant tables for the encode kernel's cosine (8 × float32 each: AVX2
// reads them as vectors, AVX-512 broadcasts the first element).
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

// ENCSTEP adds x[i]·panel[g][i] to one lane-class accumulator: xoff is
// the byte offset of x[i] from AX, poff that of the group's element-i
// vector from BX (64 bytes per element); bc and prod are scratch.
#define ENCSTEP(bc, prod, xoff, poff, acc) \
	VBROADCASTSS xoff(AX), bc \
	VMULPS       poff(BX), bc, prod \
	VADDPS       prod, acc, acc

// COS256 replaces the pre-activations in x with Cos32(x), eight lanes,
// leaving the result in p (n and z are scratch): x·(1/π) rounded to even
// gives the half-period index n; r = x − n·πhi − n·πlo; a degree-12 even
// polynomial in z = r²; the parity of n flips the sign bit. The same
// single-rounded float32 steps as the scalar Cos32.
#define COS256(x, n, z, p) \
	VMULPS     cosInvPiV<>(SB), x, n \
	VROUNDPS   $0, n, n \
	VMULPS     cosPiHiV<>(SB), n, z \
	VSUBPS     z, x, x \
	VMULPS     cosPiLoV<>(SB), n, z \
	VSUBPS     z, x, x \
	VMULPS     x, x, z \
	VMOVUPS    cosC6V<>(SB), p \
	VMULPS     z, p, p \
	VADDPS     cosC5V<>(SB), p, p \
	VMULPS     z, p, p \
	VADDPS     cosC4V<>(SB), p, p \
	VMULPS     z, p, p \
	VADDPS     cosC3V<>(SB), p, p \
	VMULPS     z, p, p \
	VADDPS     cosC2V<>(SB), p, p \
	VMULPS     z, p, p \
	VADDPS     cosC1V<>(SB), p, p \
	VMULPS     z, p, p \
	VADDPS     cosOneV<>(SB), p, p \
	VCVTTPS2DQ n, z \
	VPSLLD     $31, z, z \
	VXORPS     z, p, p

// E2STEP adds x[i]·panel[g][i] to one lane class of both 8-row halves of
// a group: xoff is the byte offset of x[i] from AX, poff that of the
// group's element-i vector from BX; Y8 and Y9 are scratch.
#define E2STEP(xoff, poff, lo, hi) \
	VBROADCASTSS xoff(AX), Y8 \
	VMULPS       poff(BX), Y8, Y9 \
	VADDPS       Y9, lo, lo \
	VMULPS       poff+32(BX), Y8, Y9 \
	VADDPS       Y9, hi, hi

// func encodePanelAVX2(x, panel, bias, dst *float32, n, rows int)
//
// EncodePanel over rows outputs in two passes. The accumulate pass runs
// each 16-row group as two 8-row halves sharing every broadcast of x[i],
// and — sixteen accumulators being more than AVX2 has registers — in two
// sweeps over the elements: lane classes 0..3 (Y0..Y3 low half, Y4..Y7
// high half), folded ((l0+l1)+l2)+l3 into Y10/Y11, then classes 4..7 in
// the same registers, added on in order. Each add is an unfused VMULPS
// then VADDPS in increasing i, and the fold is DotLanes' sequential one.
// The bias goes on and the group's pre-activations go to dst, the last
// rows through a maskTab mask. The cosine pass then runs COS256 over dst,
// whose groups are independent, so their latency chains overlap instead
// of stalling the next group. Every output is bit-identical to
// Cos32(DotLanes(row, x) + bias).
//
// Register map: SI=x, DI=group base, DX=bias cursor, R8=dst cursor, R9=n,
// R10=rows left, R11=group bytes (64n), R12=n mod 8, R13/R14=dst and rows
// for the cosine pass, AX=x cursor, BX=element cursor, CX=count, Y0..Y7
// accumulators, Y8 broadcast, Y9 product, Y10/Y11 folded halves, Y12 the
// rows mod 8 mask.
TEXT ·encodePanelAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ panel+8(FP), DI
	MOVQ bias+16(FP), DX
	MOVQ dst+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ rows+40(FP), R10
	MOVQ R8, R13
	MOVQ R10, R14
	MOVQ R9, R11
	SHLQ $6, R11
	MOVQ R9, R12
	ANDQ $7, R12
	TESTQ R10, R10
	JZ    e2done

	// Y12 masks the rows mod 8 tail (all ones when there is none).
	MOVQ R10, AX
	ANDQ $7, AX
	JNZ  e2mask
	MOVQ $8, AX
e2mask:
	NEGQ AX
	LEAQ maskTab<>+32(SB), CX
	VMOVDQU (CX)(AX*4), Y12

e2group:
	MOVQ DI, BX
	MOVQ SI, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R9, CX
	SHRQ $3, CX
	JZ   e2tailA

e2loopA:
	E2STEP(0, 0, Y0, Y4)
	E2STEP(4, 64, Y1, Y5)
	E2STEP(8, 128, Y2, Y6)
	E2STEP(12, 192, Y3, Y7)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  e2loopA

e2tailA:
	CMPQ R12, $0
	JEQ  e2foldA
	E2STEP(0, 0, Y0, Y4)
	CMPQ R12, $1
	JEQ  e2foldA
	E2STEP(4, 64, Y1, Y5)
	CMPQ R12, $2
	JEQ  e2foldA
	E2STEP(8, 128, Y2, Y6)
	CMPQ R12, $3
	JEQ  e2foldA
	E2STEP(12, 192, Y3, Y7)

e2foldA:
	VADDPS Y1, Y0, Y10
	VADDPS Y5, Y4, Y11
	VADDPS Y2, Y10, Y10
	VADDPS Y6, Y11, Y11
	VADDPS Y3, Y10, Y10
	VADDPS Y7, Y11, Y11

	MOVQ DI, BX
	MOVQ SI, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R9, CX
	SHRQ $3, CX
	JZ   e2tailB

e2loopB:
	E2STEP(16, 256, Y0, Y4)
	E2STEP(20, 320, Y1, Y5)
	E2STEP(24, 384, Y2, Y6)
	E2STEP(28, 448, Y3, Y7)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  e2loopB

e2tailB:
	CMPQ R12, $4
	JLE  e2foldB
	E2STEP(16, 256, Y0, Y4)
	CMPQ R12, $5
	JEQ  e2foldB
	E2STEP(20, 320, Y1, Y5)
	CMPQ R12, $6
	JEQ  e2foldB
	E2STEP(24, 384, Y2, Y6)

e2foldB:
	VADDPS Y0, Y10, Y10
	VADDPS Y4, Y11, Y11
	VADDPS Y1, Y10, Y10
	VADDPS Y5, Y11, Y11
	VADDPS Y2, Y10, Y10
	VADDPS Y6, Y11, Y11
	VADDPS Y3, Y10, Y10
	VADDPS Y7, Y11, Y11
	VADDPS (DX), Y10, Y10
	VADDPS 32(DX), Y11, Y11

	CMPQ R10, $16
	JLT  e2last
	VMOVUPS Y10, (R8)
	VMOVUPS Y11, 32(R8)
	ADDQ $64, DX
	ADDQ $64, R8
	ADDQ R11, DI
	SUBQ $16, R10
	JNZ  e2group
	JMP  e2cos

e2last:
	CMPQ R10, $8
	JGT  e2lasthi
	JEQ  e2last8
	VMASKMOVPS Y10, Y12, (R8)
	JMP  e2cos
e2last8:
	VMOVUPS Y10, (R8)
	JMP  e2cos
e2lasthi:
	VMOVUPS    Y10, (R8)
	VMASKMOVPS Y11, Y12, 32(R8)

e2cos:
	CMPQ R14, $8
	JLE  e2coslast
	VMOVUPS (R13), Y0
	COS256(Y0, Y1, Y2, Y3)
	VMOVUPS Y3, (R13)
	ADDQ $32, R13
	SUBQ $8, R14
	JMP  e2cos

e2coslast:
	VMASKMOVPS (R13), Y12, Y0
	COS256(Y0, Y1, Y2, Y3)
	VMASKMOVPS Y3, Y12, (R13)

e2done:
	VZEROUPPER
	RET

// COS512 is COS256 on sixteen lanes with the constants in registers
// (Z24..Z31, Z14, Z15; see encodePanelAVX512): VRNDSCALEPS $0 is VROUNDPS
// $0, and VPXORD stands in for VXORPS, which needs AVX512DQ at this width.
#define COS512(x, n, z, p) \
	VMULPS      Z24, x, n \
	VRNDSCALEPS $0, n, n \
	VMULPS      Z25, n, z \
	VSUBPS      z, x, x \
	VMULPS      Z26, n, z \
	VSUBPS      z, x, x \
	VMULPS      x, x, z \
	VMULPS      z, Z27, p \
	VADDPS      Z28, p, p \
	VMULPS      z, p, p \
	VADDPS      Z29, p, p \
	VMULPS      z, p, p \
	VADDPS      Z30, p, p \
	VMULPS      z, p, p \
	VADDPS      Z31, p, p \
	VMULPS      z, p, p \
	VADDPS      Z14, p, p \
	VMULPS      z, p, p \
	VADDPS      Z15, p, p \
	VCVTTPS2DQ  n, z \
	VPSLLD      $31, z, z \
	VPXORD      z, p, p

// func encodePanelAVX512(x, panel, bias, dst *float32, n, rows int)
//
// encodePanelAVX2's two passes on 16-row ZMM groups. The accumulate pass
// takes two groups per pass while 32 rows remain — one broadcast of x[i]
// feeds both groups' accumulators, Z0..Z7 and Z16..Z23 — then single
// groups, the last one stored under the opmask K1.
//
// Register map: as encodePanelAVX2 with Z for Y and no half offset; Z8
// broadcast, Z9/Z10 products, cosine constants as COS512.
TEXT ·encodePanelAVX512(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ panel+8(FP), DI
	MOVQ bias+16(FP), DX
	MOVQ dst+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ rows+40(FP), R10
	MOVQ R8, R13
	MOVQ R10, R14
	MOVQ R9, R11
	SHLQ $6, R11
	TESTQ R10, R10
	JZ    e5done

	// K1 masks the rows mod 16 tail (all ones when there is none).
	MOVQ R10, CX
	ANDQ $15, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	TESTQ CX, CX
	JNZ  e5mask
	MOVL $0xffff, AX
e5mask:
	KMOVW AX, K1

e5pair:
	CMPQ R10, $32
	JLT  e5group
	MOVQ DI, BX
	MOVQ SI, AX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ R9, CX
	SHRQ $3, CX
	JZ   e5ptail

e5ploop:
	VBROADCASTSS 0(AX), Z8
	VMULPS       0(BX), Z8, Z9
	VADDPS       Z9, Z0, Z0
	VMULPS       0(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z16, Z16
	VBROADCASTSS 4(AX), Z8
	VMULPS       64(BX), Z8, Z9
	VADDPS       Z9, Z1, Z1
	VMULPS       64(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z17, Z17
	VBROADCASTSS 8(AX), Z8
	VMULPS       128(BX), Z8, Z9
	VADDPS       Z9, Z2, Z2
	VMULPS       128(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z18, Z18
	VBROADCASTSS 12(AX), Z8
	VMULPS       192(BX), Z8, Z9
	VADDPS       Z9, Z3, Z3
	VMULPS       192(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z19, Z19
	VBROADCASTSS 16(AX), Z8
	VMULPS       256(BX), Z8, Z9
	VADDPS       Z9, Z4, Z4
	VMULPS       256(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z20, Z20
	VBROADCASTSS 20(AX), Z8
	VMULPS       320(BX), Z8, Z9
	VADDPS       Z9, Z5, Z5
	VMULPS       320(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z21, Z21
	VBROADCASTSS 24(AX), Z8
	VMULPS       384(BX), Z8, Z9
	VADDPS       Z9, Z6, Z6
	VMULPS       384(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z22, Z22
	VBROADCASTSS 28(AX), Z8
	VMULPS       448(BX), Z8, Z9
	VADDPS       Z9, Z7, Z7
	VMULPS       448(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z23, Z23
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  e5ploop

e5ptail:
	MOVQ R9, CX
	ANDQ $7, CX
	JZ   e5pfold
	VBROADCASTSS 0(AX), Z8
	VMULPS       0(BX), Z8, Z9
	VADDPS       Z9, Z0, Z0
	VMULPS       0(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z16, Z16
	CMPQ CX, $1
	JEQ  e5pfold
	VBROADCASTSS 4(AX), Z8
	VMULPS       64(BX), Z8, Z9
	VADDPS       Z9, Z1, Z1
	VMULPS       64(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z17, Z17
	CMPQ CX, $2
	JEQ  e5pfold
	VBROADCASTSS 8(AX), Z8
	VMULPS       128(BX), Z8, Z9
	VADDPS       Z9, Z2, Z2
	VMULPS       128(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z18, Z18
	CMPQ CX, $3
	JEQ  e5pfold
	VBROADCASTSS 12(AX), Z8
	VMULPS       192(BX), Z8, Z9
	VADDPS       Z9, Z3, Z3
	VMULPS       192(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z19, Z19
	CMPQ CX, $4
	JEQ  e5pfold
	VBROADCASTSS 16(AX), Z8
	VMULPS       256(BX), Z8, Z9
	VADDPS       Z9, Z4, Z4
	VMULPS       256(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z20, Z20
	CMPQ CX, $5
	JEQ  e5pfold
	VBROADCASTSS 20(AX), Z8
	VMULPS       320(BX), Z8, Z9
	VADDPS       Z9, Z5, Z5
	VMULPS       320(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z21, Z21
	CMPQ CX, $6
	JEQ  e5pfold
	VBROADCASTSS 24(AX), Z8
	VMULPS       384(BX), Z8, Z9
	VADDPS       Z9, Z6, Z6
	VMULPS       384(BX)(R11*1), Z8, Z10
	VADDPS       Z10, Z22, Z22

e5pfold:
	VADDPS Z1, Z0, Z0
	VADDPS Z17, Z16, Z16
	VADDPS Z2, Z0, Z0
	VADDPS Z18, Z16, Z16
	VADDPS Z3, Z0, Z0
	VADDPS Z19, Z16, Z16
	VADDPS Z4, Z0, Z0
	VADDPS Z20, Z16, Z16
	VADDPS Z5, Z0, Z0
	VADDPS Z21, Z16, Z16
	VADDPS Z6, Z0, Z0
	VADDPS Z22, Z16, Z16
	VADDPS Z7, Z0, Z0
	VADDPS Z23, Z16, Z16
	VADDPS  (DX), Z0, Z0
	VADDPS  64(DX), Z16, Z16
	VMOVUPS Z0, (R8)
	VMOVUPS Z16, 64(R8)
	ADDQ $128, DX
	ADDQ $128, R8
	LEAQ (DI)(R11*2), DI
	SUBQ $32, R10
	JNZ  e5pair
	JMP  e5cospass

e5group:
	MOVQ DI, BX
	MOVQ SI, AX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ R9, CX
	SHRQ $3, CX
	JZ   e5tail

e5loop:
	ENCSTEP(Z8, Z9, 0, 0, Z0)
	ENCSTEP(Z8, Z9, 4, 64, Z1)
	ENCSTEP(Z8, Z9, 8, 128, Z2)
	ENCSTEP(Z8, Z9, 12, 192, Z3)
	ENCSTEP(Z8, Z9, 16, 256, Z4)
	ENCSTEP(Z8, Z9, 20, 320, Z5)
	ENCSTEP(Z8, Z9, 24, 384, Z6)
	ENCSTEP(Z8, Z9, 28, 448, Z7)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  e5loop

e5tail:
	MOVQ R9, CX
	ANDQ $7, CX
	JZ   e5fold
	ENCSTEP(Z8, Z9, 0, 0, Z0)
	CMPQ CX, $1
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 4, 64, Z1)
	CMPQ CX, $2
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 8, 128, Z2)
	CMPQ CX, $3
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 12, 192, Z3)
	CMPQ CX, $4
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 16, 256, Z4)
	CMPQ CX, $5
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 20, 320, Z5)
	CMPQ CX, $6
	JEQ  e5fold
	ENCSTEP(Z8, Z9, 24, 384, Z6)

e5fold:
	VADDPS Z1, Z0, Z0
	VADDPS Z2, Z0, Z0
	VADDPS Z3, Z0, Z0
	VADDPS Z4, Z0, Z0
	VADDPS Z5, Z0, Z0
	VADDPS Z6, Z0, Z0
	VADDPS Z7, Z0, Z0
	VADDPS (DX), Z0, Z0
	CMPQ R10, $16
	JLE  e5last
	VMOVUPS Z0, (R8)
	ADDQ $64, DX
	ADDQ $64, R8
	ADDQ R11, DI
	SUBQ $16, R10
	JMP  e5group

e5last:
	VMOVUPS Z0, K1, (R8)

e5cospass:
	VBROADCASTSS cosInvPiV<>(SB), Z24
	VBROADCASTSS cosPiHiV<>(SB), Z25
	VBROADCASTSS cosPiLoV<>(SB), Z26
	VBROADCASTSS cosC6V<>(SB), Z27
	VBROADCASTSS cosC5V<>(SB), Z28
	VBROADCASTSS cosC4V<>(SB), Z29
	VBROADCASTSS cosC3V<>(SB), Z30
	VBROADCASTSS cosC2V<>(SB), Z31
	VBROADCASTSS cosC1V<>(SB), Z14
	VBROADCASTSS cosOneV<>(SB), Z15

e5cos:
	CMPQ R14, $16
	JLE  e5coslast
	VMOVUPS (R13), Z0
	COS512(Z0, Z1, Z2, Z3)
	VMOVUPS Z3, (R13)
	ADDQ $64, R13
	SUBQ $16, R14
	JMP  e5cos

e5coslast:
	VMOVUPS (R13), K1, Z0
	COS512(Z0, Z1, Z2, Z3)
	VMOVUPS Z3, K1, (R13)

e5done:
	VZEROUPPER
	RET

// The sign kernel's lane-class steps, for one query's four groups: SZERO
// clears their accumulators; SLOAD loads the four groups' element-i
// vectors into Z24..Z27 (BX the first, R11 the group stride, R12 three
// strides); SFMA4 adds them times the query's broadcast b; SFOLD adds the
// accumulators into the query's running folds.
#define SZERO(a0, a1, a2, a3) \
	VPXORD a0, a0, a0 \
	VPXORD a1, a1, a1 \
	VPXORD a2, a2, a2 \
	VPXORD a3, a3, a3

#define SLOAD \
	VMOVUPS (BX), Z24 \
	VMOVUPS (BX)(R11*1), Z25 \
	VMOVUPS (BX)(R11*2), Z26 \
	VMOVUPS (BX)(R12*1), Z27

#define SFMA4(b, a0, a1, a2, a3) \
	VFMADD231PS Z24, b, a0 \
	VFMADD231PS Z25, b, a1 \
	VFMADD231PS Z26, b, a2 \
	VFMADD231PS Z27, b, a3

// SFMAM is SFMA4 straight from memory, for the group vectors at byte
// offset off: one query has no second use for them.
#define SFMAM(b, off, a0, a1, a2, a3) \
	VFMADD231PS off(BX), b, a0 \
	VFMADD231PS off(BX)(R11*1), b, a1 \
	VFMADD231PS off(BX)(R11*2), b, a2 \
	VFMADD231PS off(BX)(R12*1), b, a3

#define SFOLD(f0, f1, f2, f3, a0, a1, a2, a3) \
	VADDPS a0, f0, f0 \
	VADDPS a1, f1, f1 \
	VADDPS a2, f2, f2 \
	VADDPS a3, f3, f3

// SPASS starts lane class k = R13: CX = ⌈(n − k)/8⌉ products per lane, AX
// the byte offset of x[k], BX group 0's element-k vector.
#define SPASS \
	LEAQ 7(R9), CX \
	SUBQ R13, CX \
	SHRQ $3, CX \
	MOVQ R13, AX \
	SHLQ $2, AX \
	MOVQ R13, BX \
	SHLQ $6, BX \
	ADDQ DI, BX

// SIGN16 turns the sixteen fused pre-activations s' in s into sign bits
// K4 and certificate bits K2: v' = s'·(1/π), n' = v' rounded to even, the
// sign bit is "n' is even", and a lane is certified when |v'| < 2^14 and
// |v' − n'| ≤ m0 − m1·|v'| (Z26, Z27; v' − n' is exact). Clobbers
// Z12..Z16, K3.
#define SIGN16(s) \
	VMULPS       Z24, s, Z12 \
	VRNDSCALEPS  $0, Z12, Z13 \
	VSUBPS       Z13, Z12, Z14 \
	VPANDD       Z25, Z14, Z14 \
	VPANDD       Z25, Z12, Z15 \
	VMOVAPS      Z26, Z16 \
	VFNMADD231PS Z27, Z15, Z16 \
	VCMPPS       $0x11, Z28, Z15, K3 \
	VCMPPS       $0x12, Z16, Z14, K3, K2 \
	VCVTTPS2DQ   Z13, Z15 \
	VPTESTNMD    Z29, Z15, K4

// SQUERY adds the bias to one query's four folds and stores their sign
// and certificate bits, group g's sixteen at bits 16g of out[j] and
// out[3+j]; off = 8j.
#define SQUERY(f0, f1, f2, f3, off) \
	VADDPS (DX), f0, f0 \
	SIGN16(f0) \
	KMOVW  K4, off(R8) \
	KMOVW  K2, 24+off(R8) \
	VADDPS 64(DX), f1, f1 \
	SIGN16(f1) \
	KMOVW  K4, 2+off(R8) \
	KMOVW  K2, 26+off(R8) \
	VADDPS 128(DX), f2, f2 \
	SIGN16(f2) \
	KMOVW  K4, 4+off(R8) \
	KMOVW  K2, 28+off(R8) \
	VADDPS 192(DX), f3, f3 \
	SIGN16(f3) \
	KMOVW  K4, 6+off(R8) \
	KMOVW  K2, 30+off(R8)

// func signWordAVX512(x0, x1, x2, panel, bias *float32, out *[6]uint64, n, q int, m0 *float32, m1 float32, next *float32)
//
// SignPanel's certified pass over one 64-row panel word, four 16-row
// groups, for q = 1, 2 or 3 queries x0.. of n ≥ 1 elements: query j's
// sign bits go to out[j] and its certificate bits to out[3+j], with m0[j]
// its margin. Per lane class k, the products k, k+8, … of each (group,
// query) accumulate by VFMADD231PS into a zeroed register, which is then
// added into the pair's running fold (started at −0, and −0 + a = a), and
// the bias is added last: encodePanelAVX512's additions, fused, in the
// same order. One load per group vector and one broadcast per query feed
// 4q multiply-adds. SIGN16 then takes the place of the cosine. The call
// first prefetches the 1 KiB at next, a piece of the word the caller
// takes up after this one: a word's first call otherwise waits on its
// strided lane-class loads from L2.
//
// Register map: SI, R14, R15 = x0, x1, x2, DI=panel word, DX=bias,
// R8=out, R9=n, R10=q, R11=group bytes (64n), R12=3·R11, R13=lane class,
// AX=x offset, BX=panel cursor, CX=count; Z0..Z11 the folds (query j,
// group g in Z(4j+g)), Z12..Z23 the lane accumulators alike, Z24..Z27 the
// group vectors, Z28..Z30 the broadcasts. A lone query (q = 1) takes two
// lane classes per pass, k into Z12..Z15 and k+1 into Z16..Z19, straight
// from memory, with R14 counting class k+1's products and CX then the
// one class k has beyond them. The epilogue reuses Z12..Z16 as
// SIGN16's scratch and Z24..Z29 for its constants: Z24=1/π, Z25=abs mask,
// Z26=m0[j], Z27=m1, Z28=2^14, Z29=1.
TEXT ·signWordAVX512(SB), NOSPLIT, $0-88
	MOVQ x0+0(FP), SI
	MOVQ x1+8(FP), R14
	MOVQ x2+16(FP), R15
	MOVQ panel+24(FP), DI
	MOVQ bias+32(FP), DX
	MOVQ out+40(FP), R8
	MOVQ n+48(FP), R9
	MOVQ q+56(FP), R10
	MOVQ R9, R11
	SHLQ $6, R11
	LEAQ (R11)(R11*2), R12
	MOVL $0x80000000, AX
	VPBROADCASTD AX, Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7
	VMOVAPS Z0, Z8
	VMOVAPS Z0, Z9
	VMOVAPS Z0, Z10
	VMOVAPS Z0, Z11
	MOVQ next+80(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 256(AX)
	PREFETCHT0 320(AX)
	PREFETCHT0 384(AX)
	PREFETCHT0 448(AX)
	PREFETCHT0 512(AX)
	PREFETCHT0 576(AX)
	PREFETCHT0 640(AX)
	PREFETCHT0 704(AX)
	PREFETCHT0 768(AX)
	PREFETCHT0 832(AX)
	PREFETCHT0 896(AX)
	PREFETCHT0 960(AX)
	XORQ R13, R13
	CMPQ R10, $2
	JLT  sw1pass
	JEQ  sw2pass

sw3pass:
	SPASS
	SZERO(Z12, Z13, Z14, Z15)
	SZERO(Z16, Z17, Z18, Z19)
	SZERO(Z20, Z21, Z22, Z23)
	TESTQ CX, CX
	JZ    sw3fold

sw3loop:
	SLOAD
	VBROADCASTSS (SI)(AX*1), Z28
	VBROADCASTSS (R14)(AX*1), Z29
	VBROADCASTSS (R15)(AX*1), Z30
	SFMA4(Z28, Z12, Z13, Z14, Z15)
	SFMA4(Z29, Z16, Z17, Z18, Z19)
	SFMA4(Z30, Z20, Z21, Z22, Z23)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  sw3loop

sw3fold:
	SFOLD(Z0, Z1, Z2, Z3, Z12, Z13, Z14, Z15)
	SFOLD(Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19)
	SFOLD(Z8, Z9, Z10, Z11, Z20, Z21, Z22, Z23)
	INCQ R13
	CMPQ R13, $8
	JLT  sw3pass
	JMP  swsigns

sw2pass:
	SPASS
	SZERO(Z12, Z13, Z14, Z15)
	SZERO(Z16, Z17, Z18, Z19)
	TESTQ CX, CX
	JZ    sw2fold

sw2loop:
	SLOAD
	VBROADCASTSS (SI)(AX*1), Z28
	VBROADCASTSS (R14)(AX*1), Z29
	SFMA4(Z28, Z12, Z13, Z14, Z15)
	SFMA4(Z29, Z16, Z17, Z18, Z19)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ CX
	JNZ  sw2loop

sw2fold:
	SFOLD(Z0, Z1, Z2, Z3, Z12, Z13, Z14, Z15)
	SFOLD(Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19)
	INCQ R13
	CMPQ R13, $8
	JLT  sw2pass
	JMP  swsigns

sw1pass:
	SPASS
	LEAQ 6(R9), R14
	SUBQ R13, R14
	SHRQ $3, R14
	SUBQ R14, CX
	SZERO(Z12, Z13, Z14, Z15)
	SZERO(Z16, Z17, Z18, Z19)
	TESTQ R14, R14
	JZ    sw1odd

sw1loop:
	VBROADCASTSS (SI)(AX*1), Z28
	VBROADCASTSS 4(SI)(AX*1), Z29
	SFMAM(Z28, 0, Z12, Z13, Z14, Z15)
	SFMAM(Z29, 64, Z16, Z17, Z18, Z19)
	ADDQ $32, AX
	ADDQ $512, BX
	DECQ R14
	JNZ  sw1loop

sw1odd:
	TESTQ CX, CX
	JZ    sw1fold
	VBROADCASTSS (SI)(AX*1), Z28
	SFMAM(Z28, 0, Z12, Z13, Z14, Z15)

sw1fold:
	SFOLD(Z0, Z1, Z2, Z3, Z12, Z13, Z14, Z15)
	SFOLD(Z0, Z1, Z2, Z3, Z16, Z17, Z18, Z19)
	ADDQ $2, R13
	CMPQ R13, $8
	JLT  sw1pass

swsigns:
	VBROADCASTSS cosInvPiV<>(SB), Z24
	MOVL $0x7fffffff, AX
	VPBROADCASTD AX, Z25
	VBROADCASTSS m1+72(FP), Z27
	MOVL $0x46800000, AX
	VPBROADCASTD AX, Z28
	MOVL $1, AX
	VPBROADCASTD AX, Z29
	MOVQ m0+64(FP), CX
	VBROADCASTSS (CX), Z26
	SQUERY(Z0, Z1, Z2, Z3, 0)
	CMPQ R10, $2
	JLT  swdone
	VBROADCASTSS 4(CX), Z26
	SQUERY(Z4, Z5, Z6, Z7, 8)
	CMPQ R10, $3
	JLT  swdone
	VBROADCASTSS 8(CX), Z26
	SQUERY(Z8, Z9, Z10, Z11, 16)

swdone:
	VZEROUPPER
	RET

// func absMaxAVX512(x *float32, n int) uint32
//
// max_i |x_i| as float32 bits for n >= 1, sixteen lanes per step, the
// n mod 16 tail under a zeroing mask: with the sign bits cleared, integer
// order is magnitude order, and a NaN's bits top every number's.
TEXT ·absMaxAVX512(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL $0x7fffffff, AX
	VPBROADCASTD AX, Z1
	VPXORD Z0, Z0, Z0

am5loop:
	CMPQ CX, $16
	JLT  am5tail
	VPANDD  (SI), Z1, Z2
	VPMAXUD Z2, Z0, Z0
	ADDQ $64, SI
	SUBQ $16, CX
	JMP  am5loop

am5tail:
	TESTQ CX, CX
	JZ    am5fold
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VPANDD.Z (SI), Z1, K1, Z2
	VPMAXUD  Z2, Z0, Z0

am5fold:
	VEXTRACTI64X4 $1, Z0, Y2
	VPMAXUD       Y2, Y0, Y0
	VEXTRACTI128  $1, Y0, X2
	VPMAXUD       X2, X0, X0
	VPSHUFD       $0x4e, X0, X2
	VPMAXUD       X2, X0, X0
	VPSHUFD       $0xb1, X0, X2
	VPMAXUD       X2, X0, X0
	VMOVD         X0, AX
	MOVL          AX, ret+16(FP)
	VZEROUPPER
	RET
