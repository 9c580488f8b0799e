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

// cosIntoAVX2 evaluates dst[i] = Cos32(pre[i] + bias[i]) eight lanes at a
// time with the same single-rounded float32 operations as the scalar
// form, so results are bit-identical. Implemented in gemm_amd64.s.
//
//go:noescape
func cosIntoAVX2(dst, pre, bias *float32, n int)

// useAVX gates the dot kernel on AVX plus OS support for YMM state;
// useAVX2 additionally gates the cosine kernel (VPSLLD on YMM). Detection
// lives in internal/cpufeat, shared with the packed kernels of
// internal/bitpack.
var useAVX, useAVX2 = cpufeat.HasAVX, cpufeat.HasAVX2
