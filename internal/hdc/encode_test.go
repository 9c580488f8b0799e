package hdc

import (
	"fmt"
	"math"
	"testing"

	"cyberhd/internal/rng"
)

// encodeInDims and encodeDims are the shapes every encode-kernel path is
// held to: every DotLanes tail length, the 8-element block edges, the CIC
// feature count, and row counts around the 16-row group.
var (
	encodeInDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 78, 100}
	encodeDims   = []int{1, 15, 16, 17, 31, 33, 130, 512}
)

// toPanel lays a row-major rows×n base matrix out as an EncodePanel group
// panel and pads bias to whole groups. Padding rows get NaN in both, so a
// kernel that lets a padding row reach a real output fails loudly.
func toPanel(base []float32, bias []float32, rows, n int) (panel, padBias []float32) {
	groups := (rows + EncodeGroup - 1) / EncodeGroup
	panel = make([]float32, groups*EncodeGroup*n)
	padBias = make([]float32, groups*EncodeGroup)
	nan := float32(math.NaN())
	for r := 0; r < groups*EncodeGroup; r++ {
		for i := 0; i < n; i++ {
			v := nan
			if r < rows {
				v = base[r*n+i]
			}
			panel[PanelIndex(r, i, n)] = v
		}
		padBias[r] = nan
		if r < rows {
			padBias[r] = bias[r]
		}
	}
	return panel, padBias
}

// sameFloat32 is bit equality, except that any NaN matches any NaN: which
// payload survives is outside the kernels' contract.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkEncodePanel runs EncodePanel on a row-major base matrix and
// requires every output to equal Cos32(DotLanes(row, x) + bias) bit for
// bit.
func checkEncodePanel(t *testing.T, path string, x, base, bias []float32) {
	t.Helper()
	n, rows := len(x), len(bias)
	panel, padBias := toPanel(base, bias, rows, n)
	got := make([]float32, rows)
	EncodePanel(x, panel, padBias, got)
	for r := range got {
		want := Cos32(DotLanes(base[r*n:][:n:n], x) + bias[r])
		if !sameFloat32(got[r], want) {
			t.Fatalf("%s n=%d rows=%d row %d: EncodePanel %v (%#x) != scalar %v (%#x)",
				path, n, rows, r, got[r], math.Float32bits(got[r]), want, math.Float32bits(want))
		}
	}
}

// TestEncodePanelMatchesScalar pins the encode kernel on every dispatch
// path this CPU runs (the others are logged) to the scalar expression it
// replaces, bit for bit, at every tail length and group edge.
func TestEncodePanelMatchesScalar(t *testing.T) {
	r := rng.New(21)
	encodePaths(t, func(path string) {
		for _, n := range encodeInDims {
			for _, rows := range encodeDims {
				x := make([]float32, n)
				base := make([]float32, rows*n)
				bias := make([]float32, rows)
				r.FillNorm(x, 0, 1)
				r.FillNorm(base, 0, 1/math.Sqrt(float64(n)))
				r.FillUniform(bias, 0, 2*math.Pi)
				checkEncodePanel(t, path, x, base, bias)
			}
		}
	})
}

// TestEncodePanelEdgeCases covers an empty input (every output is the
// cosine of its phase), an empty output, and the length checks.
func TestEncodePanelEdgeCases(t *testing.T) {
	bias := []float32{0, 1, 2}
	encodePaths(t, func(path string) {
		checkEncodePanel(t, path, nil, nil, bias)
	})
	EncodePanel([]float32{1}, nil, nil, nil)
	for name, f := range map[string]func(){
		"short panel": func() { EncodePanel(make([]float32, 2), make([]float32, 31), make([]float32, 16), make([]float32, 3)) },
		"short bias":  func() { EncodePanel(make([]float32, 2), make([]float32, 32), make([]float32, 15), make([]float32, 3)) },
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

// TestEncodePanelAllocFree: a partial last group, stored under a mask,
// costs no allocation either.
func TestEncodePanelAllocFree(t *testing.T) {
	x := make([]float32, 78)
	panel, bias := toPanel(make([]float32, 33*78), make([]float32, 33), 33, 78)
	dst := make([]float32, 33)
	if allocs := testing.AllocsPerRun(20, func() { EncodePanel(x, panel, bias, dst) }); allocs != 0 {
		t.Errorf("EncodePanel allocated %.1f objects per call", allocs)
	}
}

// FuzzEncodePanel reads the fuzz bytes as float32 bit patterns — ±0,
// subnormals, ±Inf, NaN, magnitudes far past any encoder pre-activation —
// split into the query, the phases and the base rows, and holds every
// dispatch path to the scalar expression.
func FuzzEncodePanel(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 128, 1, 0, 0, 0, 0, 0, 128, 127, 0, 0, 128, 255, 255, 255, 127, 127}, uint8(2), uint8(3))
	f.Add(make([]byte, 4*40), uint8(9), uint8(17))
	f.Fuzz(func(t *testing.T, raw []byte, n8, rows8 uint8) {
		v := make([]float32, len(raw)/4)
		for i := range v {
			v[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		n, rows := int(n8%40), 1+int(rows8%40)
		if len(v) < n+rows+1 {
			return
		}
		x, bias, rest := v[:n], v[n:n+rows], v[n+rows:]
		base := make([]float32, rows*n)
		for i := range base {
			base[i] = rest[i%len(rest)]
		}
		encodePaths(t, func(path string) { checkEncodePanel(t, path, x, base, bias) })
	})
}

// BenchmarkEncodePanel is one RBF encode at D = 512 per dispatch path, at
// the CIC feature count and at the encoder benchmark's 41.
func BenchmarkEncodePanel(b *testing.B) {
	for _, n := range []int{78, 41} {
		r := rng.New(22)
		x := make([]float32, n)
		base := make([]float32, 512*n)
		bias := make([]float32, 512)
		r.FillNorm(x, 0, 1)
		r.FillNorm(base, 0, 1/math.Sqrt(float64(n)))
		panel, padBias := toPanel(base, bias, 512, n)
		dst := make([]float32, 512)
		encodePaths(b, func(path string) {
			b.Run(fmt.Sprintf("%s/512x%d", path, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					EncodePanel(x, panel, padBias, dst)
				}
			})
		})
	}
}
