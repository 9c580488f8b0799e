package hdc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cyberhd/internal/rng"
)

// TestCosPolyPositive proves the premise of the sign certificate: Cos32's
// polynomial is positive on every float32 z in [0, signZMax], so a
// certified lane's sign is its half-period parity. From 1 up every float32
// is evaluated. Below 1 the exact polynomial is an alternating series with
// shrinking terms, so it is at least 1 − z/2 ≥ ½, and its twelve float32
// roundings and rounded coefficients move it by under 1e-5; the sampled
// minimum there (cos 1 ≈ 0.5403) confirms the bound.
func TestCosPolyPositive(t *testing.T) {
	for z := float32(1); z <= signZMax; z = math.Nextafter32(z, 4) {
		if p := cosPoly(z); !(p > 0) {
			t.Fatalf("cosPoly(%v) = %v, not positive below signZMax", z, p)
		}
	}
	for b := uint32(0); b < math.Float32bits(1); b += 4099 {
		if z := math.Float32frombits(b); !(cosPoly(z) > 0.5) {
			t.Fatalf("cosPoly(%v) = %v, not above ½", z, cosPoly(z))
		}
	}
	if cosPoly(math.Nextafter32(1, 0)) <= 0.5 || signEta <= 0 || signEta > 1e-4 {
		t.Fatalf("certificate constants out of range: signEta %v", signEta)
	}
}

// checkEncodeSigns checks a block of 1–7 distinct queries derived from
// x: x itself, rescaled rotations of it, and from three queries up one
// with a NaN, an infinity or a huge element, which no lane certifies.
func checkEncodeSigns(t *testing.T, path string, x, base, bias []float32) {
	t.Helper()
	n, b := len(x), 1+(len(x)+len(bias))%7
	xs := NewMatrix(b, n)
	for j := range b {
		for i := range n {
			xs.Data[j*n+i] = x[(i+j)%n] * (1 - float32(j)/16)
		}
	}
	if b >= 3 && n > 0 {
		xs.Row(b / 2)[0] = []float32{float32(math.NaN()), float32(math.Inf(b%2*2 - 1)), 1e30}[b%3]
	}
	checkSignBlock(t, path, xs, base, bias)
}

// checkSignBlock runs EncodeSigns on each row of xs, and EncodeSignsBatch
// on all of them, over a row-major base matrix and requires every bit to
// be Cos32(DotLanes(row, x) + bias) >= 0, the bits past the rows clear,
// and the nonzero reports to match the outputs.
func checkSignBlock(t *testing.T, path string, xs *Matrix, base, bias []float32) {
	t.Helper()
	n, rows := xs.Cols, len(bias)
	p := NewSignPanel(base, bias, n)
	words, stale := p.Words(), []uint64{^uint64(0)} // stale bits must not survive
	batch, batchNZ := slices.Repeat(stale, xs.Rows*words), make([]bool, xs.Rows)
	p.EncodeSignsBatch(xs, 0, xs.Rows, batch, batchNZ)
	for q := range xs.Rows {
		x, got := xs.Row(q), slices.Repeat(stale, words)
		nonzero, wantNZ := p.EncodeSigns(x, got), false
		for r := range words * 64 {
			want := uint64(0)
			if r < rows {
				h := Cos32(DotLanes(base[r*n:][:n:n], x) + bias[r])
				if h >= 0 {
					want = 1
				}
				wantNZ = wantNZ || h > 0 || h < 0
			}
			if bit, bb := got[r/64]>>(r%64)&1, batch[q*words+r/64]>>(r%64)&1; bit != want || bb != want {
				t.Fatalf("%s n=%d rows=%d query %d of %d, row %d: EncodeSigns bit %d, batch bit %d, scalar %d",
					path, n, rows, q, xs.Rows, r, bit, bb, want)
			}
		}
		if nonzero != wantNZ || batchNZ[q] != wantNZ {
			t.Fatalf("%s n=%d rows=%d query %d of %d: nonzero %v (batch %v), scalar %v", path, n, rows, q, xs.Rows, nonzero, batchNZ[q], wantNZ)
		}
	}
}

// TestEncodeSignsMatchesScalar pins the sign kernel on every dispatch path
// this CPU runs to the scalar predicate at every tail length, group edge
// and partial last word, with served-range queries (|x| up to 10); and
// blocks of 1–7, 63, 64 and 65 distinct queries, one of them uncertified,
// at every group and word edge.
func TestEncodeSignsMatchesScalar(t *testing.T) {
	r := rng.New(23)
	panel := func(n, rows int) (base, bias []float32) {
		base, bias = make([]float32, rows*n), make([]float32, rows)
		r.FillNorm(base, 0, 1/math.Sqrt(float64(n)))
		r.FillUniform(bias, 0, 2*math.Pi)
		return base, bias
	}
	encodePaths(t, func(path string) {
		for _, n := range encodeInDims {
			for _, rows := range append(encodeDims, 63, 64, 65, 410) {
				x := make([]float32, n)
				r.FillNorm(x, 0, 3)
				base, bias := panel(n, rows)
				checkEncodeSigns(t, path, x, base, bias)
			}
		}
		for _, n := range []int{5, 78} {
			for _, rows := range []int{1, 15, 16, 17, 63, 64, 65, 410} {
				base, bias := panel(n, rows)
				for _, b := range []int{1, 2, 3, 4, 5, 6, 7, 63, 64, 65} {
					xs := NewMatrix(b, n)
					r.FillNorm(xs.Data, 0, 3)
					if b > 1 {
						xs.Row(b / 2)[b%n] = []float32{float32(math.NaN()), float32(math.Inf(-1)), 1e8}[b%3]
					}
					checkSignBlock(t, fmt.Sprintf("%s batch %d", path, b), xs, base, bias)
				}
			}
		}
	})
}

// TestEncodeSignsNearBoundary puts pre-activations within a few ulps of
// the cosine's zeros (k+½)π, where the fused sum, 1/π's rounding and the
// polynomial's own zero all decide the bit, so the certificate must turn
// lanes away and the fallback must get them right. On AVX-512 it also
// checks that the certified pass did turn some lanes away.
func TestEncodeSignsNearBoundary(t *testing.T) {
	r := rng.New(24)
	const n, rows = 78, 64 * 5
	x := make([]float32, n)
	r.FillNorm(x, 0, 3)
	base := make([]float32, rows*n)
	r.FillNorm(base, 0, 1/math.Sqrt(float64(n)))
	bias := make([]float32, rows)
	for i := range rows {
		// Aim DotLanes(row, x) + bias at (k+½)π, then step a few ulps off.
		k := float64(i%40) - 20
		s0 := DotLanes(base[i*n:][:n:n], x)
		b := float32((k+0.5)*math.Pi - float64(s0))
		for step := i / 40 % 8; step > 0; step-- {
			b = math.Nextafter32(b, float32(math.Inf(2*(i%2)-1)))
		}
		bias[i] = b
	}
	encodePaths(t, func(path string) {
		checkEncodeSigns(t, path, x, base, bias)
		// One-element rows make s exact on every path: only the reduction
		// and the polynomial decide, at zeros up to |k| = 2^12.
		for _, k := range []float64{0, 1, -1, 7, -40, 999, 4095} {
			s := float32((k + 0.5) * math.Pi)
			one, sb, zb := []float32{1}, make([]float32, 64), make([]float32, 64)
			for j := range sb {
				sb[j] = s
				for range j {
					sb[j] = math.Nextafter32(sb[j], float32(math.Inf(1)))
				}
				if j >= 32 {
					sb[j] = s
					for range j - 32 {
						sb[j] = math.Nextafter32(sb[j], float32(math.Inf(-1)))
					}
				}
			}
			checkEncodeSigns(t, fmt.Sprintf("%s k=%v", path, k), one, sb, zb)
		}
		if path != "avx512" {
			return
		}
		p := NewSignPanel(base, bias, n)
		m0, ok := p.certificate(x)
		turned := 0
		for w := range p.Words() {
			var signs, cert uint64
			encodeSignsAVX512(&x[0], &p.panel[w*64*n], &p.bias[w*64], &signs, &cert, n, 64, m0, signSlope)
			turned += 64 - popcount(cert)
		}
		if !ok || turned == 0 {
			t.Fatalf("certified pass turned no lane away near the zeros (ok=%v)", ok)
		}
	})
}

// TestSignWordMargins runs the certified pass on one, two and three
// queries with one margin negative in turn: exactly the slot whose own
// margin is negative certifies nothing, and every query's certified bits,
// in its own slot, are its exact signs.
func TestSignWordMargins(t *testing.T) {
	if !useAVX512 {
		t.Skip("certified pass: no AVX-512F on this CPU")
	}
	const n = 78
	r := rng.New(26)
	base, bias, xs := make([]float32, 64*n), make([]float32, 64), NewMatrix(3, n)
	r.FillNorm(base, 0, 0.1)
	r.FillUniform(bias, 0, 2*math.Pi)
	r.FillNorm(xs.Data, 0, 3)
	p := NewSignPanel(base, bias, n)
	for q := 1; q <= 3; q++ {
		for neg := range q {
			m0, out := [3]float32{0.4, 0.4, 0.4}, [6]uint64{}
			m0[neg] = -1
			signWordAVX512(&xs.Row(0)[0], &xs.Row(1)[0], &xs.Row(2)[0], &p.panel[0], &p.bias[0], &out, n, q, &m0[0], signSlope, &p.panel[0])
			for j := range q {
				want, _ := p.recompute(xs.Row(j), 0, 64, 0, 0)
				if cert := out[3+j]; (cert == 0) != (j == neg) || out[j]&cert != want&cert {
					t.Fatalf("q=%d, margin of query %d negative: query %d signs %#x cert %#x, exact %#x", q, neg, j, out[j], cert, want)
				}
			}
		}
	}
}

// encodeSignsAVX512 is the certified pass for the one query x over the
// first rows ≤ 64 rows of a panel word: signWordAVX512 with q = 1, the
// bits past rows cleared.
func encodeSignsAVX512(x, panel, bias *float32, signs, cert *uint64, n, rows int, m0, m1 float32) {
	var out [6]uint64
	signWordAVX512(x, x, x, panel, bias, &out, n, 1, &m0, m1, panel)
	valid := ^uint64(0) >> (64 - rows)
	*signs, *cert = out[0]&valid, out[3]&valid
}

func popcount(v uint64) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}

// TestEncodeSignsEdgeCases covers an empty query (every bit is the sign of
// its phase's cosine), an empty panel, a NaN phase and the length checks.
func TestEncodeSignsEdgeCases(t *testing.T) {
	encodePaths(t, func(path string) {
		checkEncodeSigns(t, path, nil, nil, []float32{0, 1, 2, 3})
		checkEncodeSigns(t, path, []float32{1, 2}, nil, nil)
		checkEncodeSigns(t, path, []float32{1, 2}, []float32{0.5, 0.5, 1, 1}, []float32{float32(math.NaN()), 1})
		checkEncodeSigns(t, path, []float32{float32(math.Inf(1)), 2}, []float32{0.5, 0.5, 1, 1}, []float32{0, 1})
	})
	p := NewSignPanel(make([]float32, 6), make([]float32, 3), 2)
	for name, f := range map[string]func(){
		"short base":  func() { NewSignPanel(make([]float32, 5), make([]float32, 3), 2) },
		"short query": func() { p.EncodeSigns(make([]float32, 1), make([]uint64, 1)) },
		"long dst":    func() { p.EncodeSigns(make([]float32, 2), make([]uint64, 2)) },
		"batch range": func() { p.EncodeSignsBatch(NewMatrix(2, 2), 1, 3, make([]uint64, 2), make([]bool, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on %s", name)
				}
			}()
			f()
		}()
	}
}

// TestEncodeSignsAllocFree: a query, single or batched, with a fallback
// group and a partial last word, costs no allocation.
func TestEncodeSignsAllocFree(t *testing.T) {
	r := rng.New(25)
	x := NewMatrix(3, 78)
	r.FillNorm(x.Data, 0, 3)
	base, bias := make([]float32, 410*78), make([]float32, 410)
	r.FillNorm(base, 0, 0.1)
	bias[5] = float32(math.Pi/2) - DotLanes(base[5*78:6*78], x.Row(0))
	p := NewSignPanel(base, bias, 78)
	dst, nz := make([]uint64, 3*p.Words()), make([]bool, 3)
	if allocs := testing.AllocsPerRun(20, func() { p.EncodeSigns(x.Row(0), dst[:p.Words()]) }); allocs != 0 {
		t.Errorf("EncodeSigns allocated %.1f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { p.EncodeSignsBatch(x, 0, 3, dst, nz) }); allocs != 0 {
		t.Errorf("EncodeSignsBatch allocated %.1f objects per call", allocs)
	}
}

// FuzzEncodeSigns reads the fuzz bytes as float32 bit patterns — ±0,
// subnormals, ±Inf, NaN, magnitudes far past 2^15 — split into the
// phases, the base rows and a block of 1–7 queries, each a different
// window of them, and holds every dispatch path to the scalar predicate.
func FuzzEncodeSigns(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 128, 1, 0, 0, 0, 0, 0, 128, 127, 0, 0, 128, 255, 255, 255, 127, 127}, uint8(2), uint8(3), uint8(4))
	f.Add([]byte{219, 15, 201, 63, 0, 0, 0, 0, 0, 0, 128, 63, 0, 0, 0, 72}, uint8(1), uint8(2), uint8(0))
	f.Add(make([]byte, 4*40), uint8(9), uint8(17), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, n8, rows8, q8 uint8) {
		v := make([]float32, len(raw)/4)
		for i := range v {
			v[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		n, rows := int(n8%40), 1+int(rows8%80)
		if len(v) < n+rows+1 {
			return
		}
		bias, rest := v[n:n+rows], v[n+rows:]
		base := make([]float32, rows*n)
		for i := range base {
			base[i] = rest[i%len(rest)]
		}
		xs := NewMatrix(1+int(q8%7), n)
		for i := range xs.Data {
			xs.Data[i] = v[(i/n*(rows+1)+i%n)%len(v)] // query j starts j·(rows+1) in
		}
		encodePaths(t, func(path string) { checkSignBlock(t, path, xs, base, bias) })
	})
}

// BenchmarkEncodeSigns is one W1 query over a served model's 410 live
// rows per dispatch path, alone and in a 64-query batch, beside
// BenchmarkEncodePanel's full float encode.
func BenchmarkEncodeSigns(b *testing.B) {
	const n, rows, batch = 78, 410, 64
	r := rng.New(22)
	x := NewMatrix(batch, n)
	base, bias := make([]float32, rows*n), make([]float32, rows)
	r.FillNorm(x.Data, 0, 1)
	r.FillNorm(base, 0, 1/math.Sqrt(n))
	r.FillUniform(bias, 0, 2*math.Pi)
	p := NewSignPanel(base, bias, n)
	dst, nz := make([]uint64, batch*p.Words()), make([]bool, batch)
	encodePaths(b, func(path string) {
		b.Run(fmt.Sprintf("%s/single", path), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.EncodeSigns(x.Row(i%batch), dst[:p.Words()])
			}
		})
		b.Run(fmt.Sprintf("%s/batch64", path), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.EncodeSignsBatch(x, 0, batch, dst, nz)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
		})
	})
}
