package encoder

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// scalarEncode is the expression every encode path is held to, over the
// row-major base State carries.
func scalarEncode(s State, x []float32, d int) float32 {
	return hdc.Cos32(hdc.DotLanes(s.Base[d*s.InDim:][:s.InDim:s.InDim], x) + s.Bias[d])
}

// TestEncodePathsMatchScalar holds Encode, EncodeBatchInto and
// EncodeDimsBatch to Cos32(DotLanes(row, x) + bias) bit for bit, on the
// kernel this CPU dispatches, over every tail length and group edge.
func TestEncodePathsMatchScalar(t *testing.T) {
	t.Logf("float kernels: %s", hdc.KernelPath())
	r := rng.New(71)
	for _, inDim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 78, 100} {
		for _, dim := range []int{1, 15, 16, 17, 31, 33, 130, 512} {
			e := NewRBF(inDim, dim, 0, uint64(inDim*1000+dim))
			s := CaptureState(e)
			x := hdc.NewMatrix(3, inDim)
			r.FillNorm(x.Data, 0, 1)
			batch := EncodeBatch(e, x)
			refresh := hdc.NewMatrix(3, dim)
			all := make([]int, dim)
			for d := range all {
				all[d] = d
			}
			EncodeDimsBatch(e, x, refresh, all)
			single := make([]float32, dim)
			for i := 0; i < x.Rows; i++ {
				e.Encode(x.Row(i), single)
				for d := 0; d < dim; d++ {
					want := math.Float32bits(scalarEncode(s, x.Row(i), d))
					for name, got := range map[string]float32{"Encode": single[d], "EncodeBatchInto": batch.At(i, d), "EncodeDimsBatch": refresh.At(i, d)} {
						if math.Float32bits(got) != want {
							t.Fatalf("inDim=%d dim=%d row %d dim %d: %s %#x, scalar %#x", inDim, dim, i, d, name, math.Float32bits(got), want)
						}
					}
				}
			}
		}
	}
}

// TestStateBaseRoundTripsBytes: the row-major base a snapshot carries
// comes back out of the encode panel byte for byte, at a Dim that leaves
// a partial group, after regeneration too.
func TestStateBaseRoundTripsBytes(t *testing.T) {
	e := NewRBF(13, 37, 0, 5)
	e.Regenerate([]int{0, 16, 36})
	s := CaptureState(e)
	back, err := FromState(s)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(v []float32) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, v)
		return b.Bytes()
	}
	got := CaptureState(back)
	if !bytes.Equal(enc(got.Base), enc(s.Base)) || !bytes.Equal(enc(got.Bias), enc(s.Bias)) {
		t.Fatal("CaptureState(FromState(s)) base or bias differs from s")
	}
}

// TestRegenerateTouchesOnlyItsLanes: redrawing dimensions rewrites
// exactly their elements and phases in the panel — every other lane,
// padding included, keeps its bits.
func TestRegenerateTouchesOnlyItsLanes(t *testing.T) {
	e := NewRBF(9, 40, 0, 6)
	dims := []int{0, 15, 16, 39}
	mine := map[int]bool{}
	for _, d := range dims {
		for i := 0; i < e.inDim; i++ {
			mine[hdc.PanelIndex(d, i, e.inDim)] = true
		}
	}
	panel, bias := append([]float32(nil), e.panel...), append([]float32(nil), e.bias...)
	e.Regenerate(dims)
	for k := range panel {
		if changed := e.panel[k] != panel[k]; changed != mine[k] {
			t.Fatalf("panel[%d]: changed=%v, want %v", k, changed, mine[k])
		}
	}
	for d := range bias {
		regen := d == 0 || d == 15 || d == 16 || d == 39
		if changed := e.bias[d] != bias[d]; changed != regen {
			t.Fatalf("bias[%d]: changed=%v, want %v", d, changed, regen)
		}
	}
}

// TestEncodeAllocFree pins the serving encode calls at zero allocations.
func TestEncodeAllocFree(t *testing.T) {
	e := NewRBF(78, 512, 0, 7)
	x := hdc.NewMatrix(64, 78)
	out := hdc.NewMatrix(64, 512)
	if allocs := testing.AllocsPerRun(20, func() { e.Encode(x.Row(0), out.Row(0)) }); allocs != 0 {
		t.Errorf("Encode allocated %.1f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { EncodeBatchInto(e, x, out) }); allocs != 0 {
		t.Errorf("EncodeBatchInto allocated %.1f objects per call", allocs)
	}
}

// BenchmarkRBFEncodeBatch64 is one serve_short micro-batch: 64 flows of
// the 78 CIC features encoded to D = 512.
func BenchmarkRBFEncodeBatch64(b *testing.B) {
	e := NewRBF(78, 512, 0, 1)
	x := hdc.NewMatrix(64, 78)
	rng.New(2).FillNorm(x.Data, 0, 1)
	out := hdc.NewMatrix(64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeBatchInto(e, x, out)
	}
}
