//go:build !amd64 || noasm

package bitpack

// Non-amd64 builds — and amd64 builds with the noasm tag, which CI uses
// to exercise the portable fallbacks on vector hardware — always take the
// pure-Go word kernels (popcount, SWAR, widened-int64 extraction), which
// are bit-identical to the assembly paths by construction.
const (
	useAVX  = false
	useAVX2 = false
)

func dotBytesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64) {
	panic("bitpack: dotBytesPanel4AVX2 without AVX2 support")
}

func dotNibblesPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64) {
	panic("bitpack: dotNibblesPanel4AVX2 without AVX2 support")
}

func dotShortsPanel4AVX2(a0, a1, a2, a3, q *uint64, n int, out *[4]int64) {
	panic("bitpack: dotShortsPanel4AVX2 without AVX2 support")
}

func dotLanes32Panel4AVX(a0, a1, a2, a3, q *uint64, ng int, lanes *[16]float64) {
	panic("bitpack: dotLanes32Panel4AVX without AVX support")
}

func maxAbsAVX(x *float32, n int) float32 {
	panic("bitpack: maxAbsAVX without AVX support")
}

func packSignsAVX(dst *uint64, x *float32, nw int) {
	panic("bitpack: packSignsAVX without AVX support")
}
