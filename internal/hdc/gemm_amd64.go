//go:build amd64 && !noasm

package hdc

import "cyberhd/internal/cpufeat"

// dotPanelAVX is the AVX implementation of DotPanel's contract: for each
// of rows rows of b (stride floats apart) it accumulates x·row in eight
// float32 lanes with unfused multiply/add and folds them sequentially —
// bit-identical to DotLanes. Implemented in gemm_amd64.s.
//
//go:noescape
func dotPanelAVX(x, b, out *float32, n, stride, rows int)

// dotPanel64AVX is the AVX implementation of DotPanel64's contract: x·row
// in four float64 lanes (VCVTPS2PD, unfused VMULPD+VADDPD), tail elements
// into lane 0, folded ((s0+s1)+s2)+s3 — bit-identical to Dot. Implemented
// in gemm_amd64.s.
//
//go:noescape
func dotPanel64AVX(x, b *float32, out *float64, n, stride, rows int)

// encodePanelAVX2 and encodePanelAVX512 are EncodePanel for n, rows >= 1:
// x[i] broadcast against element i of a group's rows into accumulator
// i mod 8, fold and bias into dst, then Cos32 over dst, a partial last
// group under a mask. Implemented in gemm_amd64.s.
//
//go:noescape
func encodePanelAVX2(x, panel, bias, dst *float32, n, rows int)

//go:noescape
func encodePanelAVX512(x, panel, bias, dst *float32, n, rows int)

// useAVX gates the dot kernels, useAVX2 and useAVX512 the encode kernel.
// Detection, OS register-state checks included, lives in internal/cpufeat,
// shared with the packed kernels of internal/bitpack.
var useAVX, useAVX2, useAVX512 = cpufeat.HasAVX, cpufeat.HasAVX2, cpufeat.HasAVX512F
