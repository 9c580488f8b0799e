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

// dots64FMA is Panel64.Dots for n, rows >= 1 over a panel whose rows are
// padded to stride: per lane group one VCVTPS2PD of the query and one
// VFMADD231PD per row into eight accumulators, folded ((s0+s1)+s2)+s3 —
// bit-identical to Dot. Implemented in gemm_amd64.s.
//
//go:noescape
func dots64FMA(x *float32, p, out *float64, n, stride, rows int)

// dots64x4AVX512 is Panel64.Dots4 for n, rows >= 1: dots64FMA's lanes and
// fold for four queries per pass over the panel, two rows per 512-bit
// accumulator. Implemented in gemm_amd64.s.
//
//go:noescape
func dots64x4AVX512(x0, x1, x2, x3 *float32, p, out *float64, n, stride, rows int)

// encodePanelAVX2 and encodePanelAVX512 are EncodePanel for n, rows >= 1:
// x[i] broadcast against element i of a group's rows into accumulator
// i mod 8, fold and bias into dst, then Cos32 over dst, a partial last
// group under a mask. Implemented in gemm_amd64.s.
//
//go:noescape
func encodePanelAVX2(x, panel, bias, dst *float32, n, rows int)

//go:noescape
func encodePanelAVX512(x, panel, bias, dst *float32, n, rows int)

// encodeSignsAVX512 is SignPanel's certified pass for n, rows >= 1: the
// fused accumulate of encodePanelAVX512, then per group sixteen sign bits
// and sixteen certificate bits (see signs.go). Implemented in
// gemm_amd64.s.
//
//go:noescape
func encodeSignsAVX512(x, panel, bias *float32, signs, cert *uint64, n, rows int, m0, m1 float32)

// absMaxAVX512 is max_i |x_i| as float32 bits for n >= 1, the ‖x‖∞ of
// the sign certificate. Implemented in gemm_amd64.s.
//
//go:noescape
func absMaxAVX512(x *float32, n int) uint32

// useAVX gates the float32 dot kernel, useAVX2 and useAVX512 the encode
// kernel, useAVX512 also Dots4's, useFMA the float64 panel kernel.
// Detection, OS register-state checks included, lives in internal/cpufeat,
// shared with the packed kernels of internal/bitpack.
var useAVX, useAVX2, useAVX512, useFMA = cpufeat.HasAVX, cpufeat.HasAVX2, cpufeat.HasAVX512F, cpufeat.HasAVX2 && cpufeat.HasFMA
