// Package faults injects hardware errors into model memories for the
// robustness evaluation (Fig 5).
//
// The fault model is a bit-error rate over storage: a hardware error rate
// p flips a fraction p of the memory's storage bits, chosen uniformly
// without replacement. A quantized HDC class memory stores Width bits per
// element, so at a fixed rate an 8-bit element absorbs 8× the flips of a
// 1-bit one; a DNN stores 32 bits per IEEE-754 float32 weight, where an
// exponent-bit flip can change the weight by orders of magnitude — the
// mechanism behind the DNN's fragility in Fig 5.
package faults

import (
	"math"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/rng"
)

// InjectQuantizedBits flips a fraction rate of the *storage bits* of the
// packed class memory, chosen uniformly without replacement. This is the
// Fig 5 fault model: at a fixed bit-error rate, an 8-bit element absorbs
// 8× the flips of a 1-bit element, which is why the paper's robustness
// degrades with precision. Returns the number of bits flipped; a rate
// outside [0, 1], NaN included, panics.
func InjectQuantizedBits(m *bitpack.Matrix, rate float64, r *rng.Rand) int {
	checkRate(rate)
	total := m.StorageBits()
	n := int(math.Round(rate * float64(total)))
	for _, k := range sampleWithoutReplacement(total, n, r) {
		m.FlipBit(k)
	}
	return n
}

// InjectFloat32Bits flips a fraction rate of the storage bits of a float32
// tensor (32 bits per weight), re-rolling flips that would produce NaN and
// saturating corrupted weights at mul × the pre-fault magnitude range.
// Returns the number of bits flipped; a bad rate, or a mul that is not
// positive, panics.
func InjectFloat32Bits(w []float32, rate, mul float64, r *rng.Rand) int {
	checkRate(rate)
	if !(mul > 0) {
		panic("faults: clamp multiplier not positive")
	}
	var maxAbs float32
	for _, v := range w {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	total := 32 * len(w)
	n := int(math.Round(rate * float64(total)))
	for _, k := range sampleWithoutReplacement(total, n, r) {
		word, bit := k/32, uint(k%32)
		bits := math.Float32bits(w[word])
		flipped := math.Float32frombits(bits ^ 1<<bit)
		for attempt := 0; math.IsNaN(float64(flipped)) && attempt < 8; attempt++ {
			bit = uint(r.Intn(32))
			flipped = math.Float32frombits(bits ^ 1<<bit)
		}
		if !math.IsNaN(float64(flipped)) {
			w[word] = flipped
		}
	}
	if maxAbs > 0 {
		lim := maxAbs * float32(mul)
		for i, v := range w {
			if v > lim {
				w[i] = lim
			} else if v < -lim {
				w[i] = -lim
			}
		}
	}
	return n
}

// checkRate panics unless rate is in [0, 1].
func checkRate(rate float64) {
	if !(rate >= 0 && rate <= 1) {
		panic("faults: rate outside [0, 1]")
	}
}

// sampleWithoutReplacement returns k distinct indices from [0, n) using
// Floyd's algorithm (O(k) expected, no O(n) allocation).
func sampleWithoutReplacement(n, k int, r *rng.Rand) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
