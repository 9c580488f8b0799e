package encoder

import (
	"strings"
	"testing"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func randInput(r *rng.Rand, n int) []float32 {
	x := make([]float32, n)
	r.FillNorm(x, 0, 1)
	return x
}

func TestEncodeDeterministic(t *testing.T) {
	r := rng.New(1)
	x := randInput(r, 8)
	e := NewRBF(8, 128, 0, 42)
	a := make([]float32, 128)
	b := make([]float32, 128)
	e.Encode(x, a)
	e.Encode(x, b)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("encode not deterministic at %d", i)
			break
		}
	}
	// Same seed, fresh encoder must agree.
	e2 := NewRBF(8, 128, 0, 42)
	e2.Encode(x, b)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same-seed encoder differs at %d", i)
			break
		}
	}
}

// EncodeDims is the scalar reference of the per-dimension refresh:
// hdc.DotLanes and hdc.Cos32 one dimension at a time, the expression
// hdc.EncodePanel is pinned bit-identical to.
func (e *RBF) EncodeDims(x, dst []float32, dims []int) {
	for _, d := range dims {
		dst[d] = hdc.Cos32(hdc.DotLanes(e.baseRow(d), x) + e.bias[d])
	}
}

// baseRow gathers base row d out of the encode panel.
func (e *RBF) baseRow(d int) []float32 {
	row := make([]float32, e.inDim)
	for i := range row {
		row[i] = e.panel[hdc.PanelIndex(d, i, e.inDim)]
	}
	return row
}

func TestEncodeDimsMatchesEncode(t *testing.T) {
	r := rng.New(2)
	x := randInput(r, 10)
	dims := []int{0, 5, 63, 127}
	e := NewRBF(10, 128, 0, 7)
	full := make([]float32, 128)
	e.Encode(x, full)
	partial := make([]float32, 128)
	e.EncodeDims(x, partial, dims)
	for _, d := range dims {
		if partial[d] != full[d] {
			t.Errorf("EncodeDims[%d] = %v, Encode = %v", d, partial[d], full[d])
		}
	}
}

func TestRegenerateChangesOnlyListedDims(t *testing.T) {
	r := rng.New(3)
	x := randInput(r, 12)
	dims := []int{1, 50, 99}
	inDims := map[int]bool{1: true, 50: true, 99: true}
	e := NewRBF(12, 100, 0, 11)
	before := make([]float32, 100)
	e.Encode(x, before)
	e.Regenerate(dims)
	after := make([]float32, 100)
	e.Encode(x, after)
	for d := 0; d < 100; d++ {
		if !inDims[d] && after[d] != before[d] {
			t.Errorf("untouched dim %d changed", d)
		}
	}
	// At least one regenerated dim should actually differ (overwhelmingly
	// likely with continuous draws).
	changed := false
	for _, d := range dims {
		if after[d] != before[d] {
			changed = true
		}
	}
	if !changed {
		t.Error("regeneration changed nothing")
	}
}

func TestRegenerateOutOfRangePanics(t *testing.T) {
	e := NewRBF(4, 16, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad dim")
		}
	}()
	e.Regenerate([]int{16})
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	e := NewRBF(4, 16, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad input length")
		}
	}()
	e.Encode(make([]float32, 3), make([]float32, 16))
}

func TestRBFOutputRange(t *testing.T) {
	e := NewRBF(6, 256, 0, 5)
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		x := randInput(r, 6)
		dst := make([]float32, 256)
		e.Encode(x, dst)
		for i, v := range dst {
			if v < -1 || v > 1 {
				t.Fatalf("cos output out of range at %d: %v", i, v)
			}
		}
	}
}

func TestRBFSimilarInputsSimilarCodes(t *testing.T) {
	// Locality: encodings of nearby inputs must be more similar than
	// encodings of distant inputs (kernel property of RFF).
	e := NewRBF(8, 2048, 0, 13)
	r := rng.New(17)
	x := randInput(r, 8)
	near := append([]float32(nil), x...)
	near[0] += 0.05
	far := randInput(r, 8)
	hx := make([]float32, 2048)
	hn := make([]float32, 2048)
	hf := make([]float32, 2048)
	e.Encode(x, hx)
	e.Encode(near, hn)
	e.Encode(far, hf)
	if hdc.Cosine(hx, hn) <= hdc.Cosine(hx, hf) {
		t.Fatalf("locality violated: near %v <= far %v", hdc.Cosine(hx, hn), hdc.Cosine(hx, hf))
	}
}

func TestEncodeBatch(t *testing.T) {
	r := rng.New(41)
	x := hdc.NewMatrix(500, 7)
	r.FillNorm(x.Data, 0, 1)
	e := NewRBF(7, 96, 0, 2)
	out := EncodeBatch(e, x)
	if out.Rows != 500 || out.Cols != 96 {
		t.Fatalf("batch shape %dx%d", out.Rows, out.Cols)
	}
	// Spot-check rows against single encode.
	want := make([]float32, 96)
	for _, i := range []int{0, 250, 499} {
		e.Encode(x.Row(i), want)
		got := out.Row(i)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("row %d dim %d: %v != %v", i, d, got[d], want[d])
			}
		}
	}
}

func TestEncodeBatchWrongColsPanics(t *testing.T) {
	e := NewRBF(7, 96, 0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EncodeBatch(e, hdc.NewMatrix(5, 6))
}

func TestEncodeDimsBatchRefreshesCache(t *testing.T) {
	r := rng.New(51)
	x := hdc.NewMatrix(300, 5)
	r.FillNorm(x.Data, 0, 1)
	e := NewRBF(5, 64, 0, 3)
	enc := EncodeBatch(e, x)
	dims := []int{2, 31, 63}
	e.Regenerate(dims)
	EncodeDimsBatch(e, x, enc, dims)
	fresh := EncodeBatch(e, x)
	for i := 0; i < x.Rows; i++ {
		for d := 0; d < 64; d++ {
			if enc.At(i, d) != fresh.At(i, d) {
				t.Fatalf("cache row %d dim %d stale after refresh", i, d)
			}
		}
	}
}

// TestEncodeDimsBatchMatchesScalarReference: the gathered-panel refresh
// equals the per-dimension scalar form bit for bit — few and many
// dimensions (past one 64-row panel), none at all, batches on both sides
// of the parallel threshold — and leaves unlisted columns alone.
func TestEncodeDimsBatchMatchesScalarReference(t *testing.T) {
	r := rng.New(61)
	for _, rows := range []int{1, 40, 700} {
		for _, dims := range [][]int{nil, {129}, {0, 5, 63, 64, 129}, r.Perm(130)[:101]} {
			x := hdc.NewMatrix(rows, 13)
			r.FillNorm(x.Data, 0, 1)
			e := NewRBF(13, 130, 0, 4)
			got := EncodeBatch(e, x)
			want := EncodeBatch(e, x)
			e.Regenerate(dims)
			EncodeDimsBatch(e, x, got, dims)
			for i := 0; i < rows; i++ {
				e.EncodeDims(x.Row(i), want.Row(i), dims)
			}
			if !got.Equal(want) {
				t.Fatalf("rows=%d dims=%d: batch refresh differs from the scalar reference", rows, len(dims))
			}
		}
	}
}

func TestEncodeDimsBatchShapePanics(t *testing.T) {
	e := NewRBF(7, 96, 0, 2)
	x := hdc.NewMatrix(5, 7)
	for name, f := range map[string]func(){
		"feature count":  func() { EncodeDimsBatch(e, hdc.NewMatrix(5, 6), hdc.NewMatrix(5, 96), []int{1}) },
		"row count":      func() { EncodeDimsBatch(e, x, hdc.NewMatrix(4, 96), []int{1}) },
		"cache width":    func() { EncodeDimsBatch(e, x, hdc.NewMatrix(5, 95), []int{1}) },
		"dimension high": func() { EncodeDimsBatch(e, x, hdc.NewMatrix(5, 96), []int{1, 96}) },
		"dimension low":  func() { EncodeDimsBatch(e, x, hdc.NewMatrix(5, 96), []int{-1}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "encoder: ") {
					t.Errorf("%s: recovered %q, want an encoder: shape panic", name, msg)
				}
			}()
			f()
		}()
	}
}

func TestNewEncoderPanics(t *testing.T) {
	cases := []func(){
		func() { NewRBF(0, 10, 0, 1) },
		func() { NewRBF(10, 0, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// TestEncodeBatchBitIdenticalAllEncoders pins the blocked batch kernel
// (RBF panel GEMM) to row-at-a-time Encode, bitwise.
func TestEncodeBatchBitIdenticalAllEncoders(t *testing.T) {
	r := rng.New(61)
	x := hdc.NewMatrix(333, 9) // sample count straddles chunk boundaries
	r.FillNorm(x.Data, 0, 1)
	e := NewRBF(9, 100, 0, 17) // dim not a panel multiple
	out := EncodeBatch(e, x)
	want := make([]float32, 100)
	for i := 0; i < x.Rows; i++ {
		e.Encode(x.Row(i), want)
		got := out.Row(i)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("row %d dim %d: batch %v != single %v", i, d, got[d], want[d])
			}
		}
	}
}

// TestEncodeBatchIntoValidation covers the reuse entry point's checks.
func TestEncodeBatchIntoValidation(t *testing.T) {
	e := NewRBF(7, 96, 0, 2)
	x := hdc.NewMatrix(5, 7)
	for i, out := range []*hdc.Matrix{hdc.NewMatrix(4, 96), hdc.NewMatrix(5, 95)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on bad output shape", i)
				}
			}()
			EncodeBatchInto(e, x, out)
		}()
	}
}

// TestStateRoundTrip pins CaptureState → FromState: same codes, and the
// RNG continuation makes post-restore regeneration draw the same stream.
func TestStateRoundTrip(t *testing.T) {
	e := NewRBF(6, 40, 0, 9)
	e.Regenerate([]int{3, 17})
	got, err := FromState(CaptureState(e))
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng.New(4), 6)
	a, b := make([]float32, 40), make([]float32, 40)
	for _, regen := range []bool{false, true} {
		if regen {
			e.Regenerate([]int{0, 39})
			got.Regenerate([]int{0, 39})
		}
		e.Encode(x, a)
		got.Encode(x, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("regen=%v: restored encoder differs at %d", regen, i)
			}
		}
	}
}

// TestFromStateRefuses covers the decode-side checks: degenerate shapes
// (which satisfy every product check), mismatched storage, and the
// retired kinds, refused by name.
func TestFromStateRefuses(t *testing.T) {
	ok := CaptureState(NewRBF(3, 4, 0, 1))
	with := func(f func(*State)) State { s := ok; f(&s); return s }
	cases := []struct {
		name, want string
		s          State
	}{
		{"zero dim", "non-positive", State{Kind: "rbf", InDim: 78}},
		{"zero indim", "non-positive", State{Kind: "rbf", Dim: 16}},
		{"negative dim", "non-positive", with(func(s *State) { s.Dim = -4 })},
		{"short base", "shape mismatch", with(func(s *State) { s.Base = s.Base[:5] })},
		{"short bias", "shape mismatch", with(func(s *State) { s.Bias = s.Bias[:1] })},
		{"linear", `retired encoder kind "linear"`, with(func(s *State) { s.Kind = "linear" })},
		{"idlevel", `retired encoder kind "idlevel"`, with(func(s *State) { s.Kind = "idlevel" })},
		{"unknown", `unknown encoder kind "fft"`, with(func(s *State) { s.Kind = "fft" })},
	}
	for _, c := range cases {
		if _, err := FromState(c.s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
