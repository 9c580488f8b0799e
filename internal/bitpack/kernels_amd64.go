//go:build amd64 && !noasm

package bitpack

import "cyberhd/internal/cpufeat"

// useAVX gates the float-side vector kernels (quantization rounding,
// sign packing, max-abs, and the W32 float64-lane dots — all AVX1
// encodable); useAVX2 additionally gates the 256-bit integer dot kernels
// (W4/W8 byte lanes, W16 word lanes). Detection is shared with
// internal/hdc via internal/cpufeat.
var useAVX, useAVX2 = cpufeat.HasAVX, cpufeat.HasAVX2

// The assembly kernels below (kernels_amd64.s) all share one contract:
// they process only whole aligned blocks — n words (multiple of 4) for
// the integer dots, n elements (width-specific multiple) for the
// quantizers — and the Go callers finish partial blocks with the scalar
// reference. Every sum they produce is either an exact integer (W1–W16)
// or the same 4-lane float64 accumulation as the scalar W32 contract, so
// the split point never changes a result bit.

// dotBytesPanel4AVX2 sets out[r] to Σ a_r,i·q_i over the n·8 signed bytes
// packed in n words (n > 0, multiple of 4) for the four rows a0..a3,
// sign-extending the query once per step. Exact: int32 lanes folded to
// int64, and the caller bounds n so lanes cannot overflow (maxSIMDDim).
//
//go:noescape
func dotBytesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)

// dotNibblesPanel4AVX2 is dotBytesPanel4AVX2 over the n·16 signed nibbles
// packed in n words: nibbles are sign-extended to bytes with a shuffle LUT
// and fed through the byte-lane core.
//
//go:noescape
func dotNibblesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)

// dotShortsPanel4AVX2 sets out[r] to Σ a_r,i·q_i over the n·4 signed int16
// packed in n words (n > 0, multiple of 4) for the four rows a0..a3,
// widening each VPMADDWD result to int64 immediately (two int16² products
// reach 2^31−2^17+2, so int32 lanes cannot hold a running sum).
//
//go:noescape
func dotShortsPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)

// dotLanes32Panel4AVX accumulates ng > 0 groups of 4 int32 products into
// 4 float64 lanes per row (lane = element index mod 4, the W32 contract);
// row r's lanes land in lanes[4r..4r+3].
//
//go:noescape
func dotLanes32Panel4AVX(a0, a1, a2, a3, q *uint64, ng int, lanes *[16]float64)

// maxAbsAVX returns max |x_i| over n floats (n > 0, multiple of 8),
// skipping NaN elements exactly as the scalar loop in maxAbsOf does: 0
// when every element is NaN.
//
//go:noescape
func maxAbsAVX(x *float32, n int) float32

// packSignsAVX packs the sign pattern of nw·64 floats (nw > 0 whole
// words): bit = 1 iff x_i >= 0, exactly the scalar packSignsFrom rule
// (VCMPPS GE_OQ matches Go >= including negative zero and NaN).
//
//go:noescape
func packSignsAVX(dst *uint64, x *float32, nw int)

// quantizeI8AVX writes round-to-even(x_i/scale) clamped to ±maxQ as n
// int8 bytes at dst (n > 0, multiple of 16). All arithmetic is the same
// IEEE double-precision sequence as the scalar quantizer, so every byte
// is bit-identical. Inputs must be NaN-free.
//
//go:noescape
func quantizeI8AVX(dst *uint64, x *float32, n int, scale, maxQ float64)

// quantizeI16AVX is quantizeI8AVX at int16 granularity (n multiple of 8).
//
//go:noescape
func quantizeI16AVX(dst *uint64, x *float32, n int, scale, maxQ float64)

// quantizeI32AVX is quantizeI8AVX at int32 granularity (n multiple of 4).
//
//go:noescape
func quantizeI32AVX(dst *uint64, x *float32, n int, scale, maxQ float64)
