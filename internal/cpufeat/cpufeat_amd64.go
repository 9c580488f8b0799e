//go:build amd64 && !noasm

package cpufeat

// cpuid and xgetbv are implemented in cpufeat_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() { HasAVX, HasAVX2, HasFMA, HasAVX512F, HasPOPCNT = detect() }

// detect mirrors the usual AVX discovery dance: the CPUID feature bits
// alone are not enough — OSXSAVE must be set and XGETBV must confirm the
// OS saves/restores XMM (XCR0 bit 1) and YMM (bit 2) state, or executing
// a VEX-encoded instruction faults; EVEX additionally needs the opmask
// (bit 5) and the upper ZMM halves and registers (bits 6 and 7).
func detect() (avx, avx2, fma, avx512f, popcnt bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false, false, false, false, false
	}
	_, _, ecx, _ := cpuid(1, 0)
	popcnt = ecx&(1<<23) != 0
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	if ecx&osxsave == 0 || ecx&avxBit == 0 {
		return false, false, false, false, popcnt
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false, false, false, false, popcnt
	}
	fma = ecx&(1<<12) != 0
	if maxID < 7 {
		return true, false, fma, false, popcnt
	}
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&(1<<5) != 0
	avx512f = avx2 && ebx&(1<<16) != 0 && xcr0&0xe6 == 0xe6
	return true, avx2, fma, avx512f, popcnt
}
