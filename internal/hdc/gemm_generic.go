//go:build !amd64 || noasm

package hdc

// Non-amd64 builds — and amd64 builds with the noasm tag, which CI uses
// to exercise the portable fallbacks on vector hardware — always take the
// portable kernels, which are bit-identical to the AVX paths by
// construction.
const (
	useAVX2   = false
	useAVX512 = false
	useFMA    = false
)

func dots64FMA(x *float32, p, out *float64, n, stride, rows int) {
	panic("hdc: dots64FMA without FMA support")
}

func dots64x4AVX512(x0, x1, x2, x3 *float32, p, out *float64, n, stride, rows int) {
	panic("hdc: dots64x4AVX512 without AVX-512 support")
}

func encodePanelAVX2(x, panel, bias, dst *float32, n, rows int) {
	panic("hdc: encodePanelAVX2 without AVX2 support")
}

func encodePanelAVX512(x, panel, bias, dst *float32, n, rows int) {
	panic("hdc: encodePanelAVX512 without AVX-512 support")
}

func signWordAVX512(x0, x1, x2, panel, bias *float32, out *[6]uint64, n, q int, m0 *float32, m1 float32, next *float32) {
	panic("hdc: signWordAVX512 without AVX-512 support")
}

func absMaxAVX512(x *float32, n int) uint32 {
	panic("hdc: absMaxAVX512 without AVX-512 support")
}
