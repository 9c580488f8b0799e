// Package cpufeat detects, once at init, the x86 instruction-set
// extensions that the hand-written kernels in internal/hdc (float panels)
// and internal/bitpack (packed integer panels) dispatch on. Non-amd64
// builds — and amd64 builds with the noasm tag, which CI uses to exercise
// the portable fallbacks — report every feature as absent, so callers can
// gate on these flags without their own build-tag plumbing.
package cpufeat

// Feature flags, fixed at package init. AVX, AVX2 and AVX-512F are only
// reported when the OS has enabled the matching register state (XGETBV),
// so a true flag means the corresponding instructions are actually
// executable, not merely present in CPUID.
var (
	// HasAVX reports AVX (256-bit float vectors) plus OS YMM support.
	HasAVX bool
	// HasAVX2 reports AVX2 (256-bit integer vectors) plus OS YMM support.
	HasAVX2 bool
	// HasFMA reports FMA3 (fused multiply-add on XMM/YMM vectors) plus OS
	// YMM support. It implies HasAVX.
	HasFMA bool
	// HasAVX512F reports AVX-512 Foundation (512-bit vectors) plus OS
	// support for the opmask and all 32 ZMM registers. It implies HasAVX2.
	HasAVX512F bool
	// HasPOPCNT reports the POPCNT instruction.
	HasPOPCNT bool
)
