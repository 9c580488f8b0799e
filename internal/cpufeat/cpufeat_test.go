package cpufeat

import "testing"

// TestFeatureImplications pins the invariants callers dispatch on: AVX2
// and FMA imply AVX (a CPU cannot usefully report 256-bit integer vectors
// or fused multiply-add without the 128/256-bit float foundation and OS
// YMM support), AVX-512F implies AVX2 (hdc's encode dispatch falls from
// avx512 to avx2), and on a noasm or non-amd64 build every flag is false
// so all kernels fall back.
func TestFeatureImplications(t *testing.T) {
	if HasAVX2 && !HasAVX {
		t.Fatalf("HasAVX2 set without HasAVX")
	}
	if HasFMA && !HasAVX {
		t.Fatalf("HasFMA set without HasAVX")
	}
	if HasAVX512F && !HasAVX2 {
		t.Fatalf("HasAVX512F set without HasAVX2")
	}
	t.Logf("cpufeat: avx=%v avx2=%v fma=%v avx512f=%v popcnt=%v", HasAVX, HasAVX2, HasFMA, HasAVX512F, HasPOPCNT)
}
