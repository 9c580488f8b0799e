//go:build amd64 && !noasm

package hdc

import "cyberhd/internal/cpufeat"

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

// signWordAVX512 is SignPanel's certified pass over one 64-row panel word
// for q = 1, 2 or 3 queries of n >= 1 elements: query j's sign bits into
// out[j], its certificate bits into out[3+j], its margin m0[j] (see
// signs.go); it prefetches the 1 KiB at next. Implemented in gemm_amd64.s.
//
//go:noescape
func signWordAVX512(x0, x1, x2, panel, bias *float32, out *[6]uint64, n, q int, m0 *float32, m1 float32, next *float32)

// absMaxAVX512 is max_i |x_i| as float32 bits for n >= 1, the ‖x‖∞ of
// the sign certificate. Implemented in gemm_amd64.s.
//
//go:noescape
func absMaxAVX512(x *float32, n int) uint32

// useAVX2 and useAVX512 gate the encode kernel, useAVX512 also Dots4's
// and the sign kernel, useFMA the float64 panel kernel. Detection, OS
// register-state checks included, lives in internal/cpufeat, shared with
// the packed kernels of internal/bitpack.
var useAVX2, useAVX512, useFMA = cpufeat.HasAVX2, cpufeat.HasAVX512F, cpufeat.HasAVX2 && cpufeat.HasFMA
