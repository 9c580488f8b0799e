//go:build amd64 && !noasm

package bitpack

import (
	"math"
	"testing"

	"cyberhd/internal/rng"
)

// This file tests the assembly kernels against their pure-Go references
// directly — not through dispatch — so a regression in either the
// assembly or the dispatch split points is attributed precisely. It only
// builds where the assembly does; the dispatch-level equivalence tests in
// kernels_test.go run everywhere.

// randWords returns n words of uniform random bits — every slot pattern
// a packed vector could hold, valid or slack.
func randWords(r *rng.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64()
	}
	return w
}

// asmBlockSizes are word counts the block kernels accept (multiples of 4
// spanning one to many 256-bit steps).
var asmBlockSizes = []int{4, 8, 12, 16, 64, 252}

// TestAsmDotBlocksMatchGo pins each integer panel kernel against the Go
// panel dotPanelIntAccum on random words.
func TestAsmDotBlocksMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 unavailable")
	}
	kernels := []struct {
		w     int
		panel func(a0, a1, a2, a3, q *uint64, n int, out *[4]int64)
	}{
		{4, dotNibblesPanel4AVX2},
		{8, dotBytesPanel4AVX2},
		{16, dotShortsPanel4AVX2},
	}
	r := rng.New(202)
	for _, k := range kernels {
		for _, n := range asmBlockSizes {
			dim := n * (64 / k.w)
			rows := [4][]uint64{randWords(r, n), randWords(r, n), randWords(r, n), randWords(r, n)}
			q := randWords(r, n)
			var got, want [4]int64
			k.panel(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &q[0], n, &got)
			dotPanelIntAccum(rows[0], rows[1], rows[2], rows[3], q, dim, k.w, &want)
			if got != want {
				t.Errorf("w=%d n=%d: asm %v != go %v", k.w, n, got, want)
			}
		}
	}
}

// TestAsmLanes32MatchesGo pins the W32 float64-lane panel bit-for-bit
// against the Go lane panel.
func TestAsmLanes32MatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("AVX unavailable")
	}
	r := rng.New(303)
	for _, ng := range []int{1, 2, 3, 7, 33, 128} {
		n := ng * 2
		rows := [4][]uint64{randWords(r, n), randWords(r, n), randWords(r, n), randWords(r, n)}
		q := randWords(r, n)
		var got, want [16]float64
		dotLanes32Panel4AVX(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &q[0], ng, &got)
		dot32LanesPanelGo(rows[0], rows[1], rows[2], rows[3], q, ng*4, &want)
		if got != want {
			t.Errorf("ng=%d: asm lanes %v != go %v", ng, got, want)
		}
	}
}

// TestAsmQuantizersMatchScalar pins maxAbsAVX and packSignsAVX against
// the scalar loops on random inputs, including negative zero.
func TestAsmQuantizersMatchScalar(t *testing.T) {
	if !useAVX {
		t.Skip("AVX unavailable")
	}
	r := rng.New(404)
	for _, n := range []int{16, 64, 128, 512} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.Intn(513)-256) / 2
		}
		x[0] = float32(math.Copysign(0, -1)) // -0.0 must pack as >= 0
		// maxAbs over whole 8-lane blocks.
		var wantMax float32
		for _, f := range x {
			if f < 0 {
				f = -f
			}
			if f > wantMax {
				wantMax = f
			}
		}
		if got := maxAbsAVX(&x[0], n); got != wantMax {
			t.Errorf("n=%d: maxAbsAVX %v != %v", n, got, wantMax)
		}
		// packSigns whole words.
		if n%64 == 0 {
			nw := n / 64
			got := make([]uint64, nw)
			packSignsAVX(&got[0], &x[0], nw)
			for i := 0; i < n; i++ {
				want := uint64(0)
				if x[i] >= 0 {
					want = 1
				}
				if bit := got[i/64] >> uint(i%64) & 1; bit != want {
					t.Errorf("n=%d: packSigns bit %d = %d, want %d", n, i, bit, want)
				}
			}
		}
	}
}

// TestAsmVsScalarDispatch runs the full public surface with the vector
// paths force-disabled and pins byte equality against the normal
// dispatch — the strongest end-to-end statement that the assembly never
// changes a result bit.
func TestAsmVsScalarDispatch(t *testing.T) {
	if !useAVX {
		t.Skip("AVX unavailable")
	}
	restoreAVX, restoreAVX2 := useAVX, useAVX2
	defer func() { useAVX, useAVX2 = restoreAVX, restoreAVX2 }()
	r := rng.New(505)
	for _, w := range Widths {
		for _, dim := range []int{1, 17, 64, 255, 513, 1024} {
			x := make([]float32, dim)
			y := make([]float32, dim)
			r.FillNorm(x, 0, 1)
			r.FillNorm(y, 0, 1)

			useAVX, useAVX2 = restoreAVX, restoreAVX2
			fastA, fastB := Quantize(x, w), Quantize(y, w)
			fastDot := Dot(fastA, fastB)
			fastNorm := NormSq(fastA)

			useAVX, useAVX2 = false, false
			slowA, slowB := Quantize(x, w), Quantize(y, w)
			slowDot := Dot(slowA, slowB)
			slowNorm := NormSq(slowA)

			useAVX, useAVX2 = restoreAVX, restoreAVX2
			if fastA.Scale != slowA.Scale {
				t.Fatalf("w=%d dim=%d: scale %v != %v", w, dim, fastA.Scale, slowA.Scale)
			}
			for k := range slowA.Words {
				if fastA.Words[k] != slowA.Words[k] {
					t.Fatalf("w=%d dim=%d: word %d %#x != %#x", w, dim, k, fastA.Words[k], slowA.Words[k])
				}
			}
			if fastDot != slowDot {
				t.Fatalf("w=%d dim=%d: Dot %v != scalar %v", w, dim, fastDot, slowDot)
			}
			if fastNorm != slowNorm {
				t.Fatalf("w=%d dim=%d: NormSq %v != scalar %v", w, dim, fastNorm, slowNorm)
			}
		}
	}
	// The max-abs reduction skips NaN elements on both paths, so the scale
	// matches with a NaN in the first vector block, in the last, in the
	// scalar tail (at dim 31 and 33) and everywhere; so do the words at
	// every width.
	nan := float32(math.NaN())
	for _, w := range Widths {
		for _, dim := range []int{8, 31, 32, 33, 64, 512} {
			for _, at := range []int{0, dim&^7 - 1, dim - 1, -1} {
				x := make([]float32, dim)
				r.FillNorm(x, 0, 1)
				for i := range x {
					if i == at || at < 0 {
						x[i] = nan
					}
				}
				useAVX, useAVX2 = restoreAVX, restoreAVX2
				fast := Quantize(x, w)
				useAVX, useAVX2 = false, false
				slow := Quantize(x, w)
				useAVX, useAVX2 = restoreAVX, restoreAVX2
				if math.Float32bits(fast.Scale) != math.Float32bits(slow.Scale) {
					t.Fatalf("w=%d dim=%d NaN at %d: scale %v != scalar %v", w, dim, at, fast.Scale, slow.Scale)
				}
				for k := range slow.Words {
					if fast.Words[k] != slow.Words[k] {
						t.Fatalf("w=%d dim=%d NaN at %d: word %d %#x != %#x", w, dim, at, k, fast.Words[k], slow.Words[k])
					}
				}
			}
		}
	}
}

// BenchmarkMatVecScalar512x8 is BenchmarkMatVecWidths512x8 with the
// vector paths force-disabled — the in-build half of the asm-vs-scalar
// comparison.
func BenchmarkMatVecScalar512x8(b *testing.B) {
	restoreAVX, restoreAVX2 := useAVX, useAVX2
	defer func() { useAVX, useAVX2 = restoreAVX, restoreAVX2 }()
	useAVX, useAVX2 = false, false
	BenchmarkMatVecWidths512x8(b)
}
