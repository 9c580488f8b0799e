//go:build !amd64 || noasm

package hdc

// Non-amd64 builds — and amd64 builds with the noasm tag, which CI uses
// to exercise the portable fallbacks on vector hardware — always take the
// portable kernels, which are bit-identical to the AVX paths by
// construction.
const (
	useAVX  = false
	useAVX2 = false
)

func dotPanelAVX(x, b, out *float32, n, stride, rows int) {
	panic("hdc: dotPanelAVX without AVX support")
}

func dotPanel64AVX(x, b *float32, out *float64, n, stride, rows int) {
	panic("hdc: dotPanel64AVX without AVX support")
}

func cosIntoAVX2(dst, pre, bias *float32, n int) {
	panic("hdc: cosIntoAVX2 without AVX2 support")
}
