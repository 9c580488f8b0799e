package hdc

// KernelPath reports which float-kernel implementation this build selected
// at init, so benchmarks and the serving /stats surface can attribute
// numbers to a code path: "avx512" (AVX-512 encode kernel, AVX dot
// panels), "avx2" (AVX2 encode kernel, AVX dot panels), "avx" (AVX dot
// panels, portable encode kernel), or "generic" (portable Go — non-amd64
// targets, the noasm build tag, or a CPU/OS without YMM state). The
// learning rule's float64 panel (Panel64) takes the assembly on a CPU
// with AVX2 and FMA (Intel since Haswell, AMD since Excavator) and the
// portable Go form otherwise, "avx" included; its block form, Dots4,
// scores four queries per pass over the panel on "avx512" and is four
// Dots calls on every other path. SignPanel's certified pass runs on
// "avx512" only; every other path is EncodePanel plus the sign.
func KernelPath() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	case useAVX:
		return "avx"
	default:
		return "generic"
	}
}
