package quantize

import (
	"slices"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func trainedModel(t testing.TB) (*core.Model, *hdc.Matrix, []int, *hdc.Matrix, []int) {
	t.Helper()
	mr := rng.New(500)
	means := hdc.NewMatrix(4, 12)
	mr.FillNorm(means.Data, 0, 1)
	gen := func(n int, seed uint64) (*hdc.Matrix, []int) {
		r := rng.New(seed)
		x := hdc.NewMatrix(n, 12)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := i % 4
			y[i] = c
			for j := 0; j < 12; j++ {
				x.Row(i)[j] = means.At(c, j) + float32(0.3*r.Norm())
			}
		}
		return x, y
	}
	x, y := gen(1500, 1)
	xt, yt := gen(500, 2)
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, y,
		core.Options{Classes: 4, Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y, xt, yt
}

func TestFromCoreInvalidWidth(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	if _, err := FromCore(m, bitpack.Width(3)); err == nil {
		t.Fatal("accepted invalid width")
	}
}

func TestQuantizedAccuracyTracksFloat(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	floatAcc := m.Evaluate(xt, yt)
	if floatAcc < 0.9 {
		t.Fatalf("float model too weak to test quantization: %v", floatAcc)
	}
	for _, w := range bitpack.Widths {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		acc := q.Evaluate(xt, yt)
		// Wide quantization should be nearly lossless; even 1-bit should
		// retain most of the accuracy on a well-separated problem.
		minAcc := floatAcc - 0.02
		if w <= bitpack.W2 {
			minAcc = floatAcc - 0.15
		}
		if acc < minAcc {
			t.Errorf("w=%d: quantized acc %v too far below float %v", w, acc, floatAcc)
		}
	}
}

func TestQuantizedShapeAndMemory(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	q, err := FromCore(m, bitpack.W8)
	if err != nil {
		t.Fatal(err)
	}
	if rows, dim := len(q.Class.Rows), q.Class.Rows[0].Dim; dim != 512 || rows != 4 {
		t.Fatalf("shape %dx%d", rows, dim)
	}
	if want := 4 * 512 * 8; q.MemoryBits() != want {
		t.Fatalf("MemoryBits = %d, want %d", q.MemoryBits(), want)
	}
	q1, _ := FromCore(m, bitpack.W1)
	if q1.MemoryBits() != 4*512 {
		t.Fatalf("1-bit MemoryBits = %d", q1.MemoryBits())
	}
}

func TestPredictMatchesPredictEncoded(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W4)
	h := make([]float32, m.Enc.Dim())
	for _, i := range []int{0, 10, 100} {
		m.Enc.Encode(x.Row(i), h)
		if q.Predict(x.Row(i)) != q.PredictEncoded(h) {
			t.Fatalf("Predict != PredictEncoded at row %d", i)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	c := q.Clone()
	accBefore := q.Evaluate(xt, yt)
	// Corrupt the clone heavily; original must be unchanged.
	for i := 0; i < c.Class.StorageBits(); i += 2 {
		c.Class.FlipBit(i)
	}
	if acc := q.Evaluate(xt, yt); acc != accBefore {
		t.Fatalf("corrupting clone changed original: %v -> %v", accBefore, acc)
	}
}

func TestEvaluateLabelMismatchPanics(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Evaluate(x, []int{0})
}

// TestW1MaskIsExact pins FromCore's W1 mask on a regenerated model: every
// ImmatureDims column is +1 in every class row, and every verdict is the
// argmax of the ±1 dot with those columns deleted. At W2–W32, and at W1
// for a model that never regenerated, the packed words are exactly
// bitpack.QuantizeMatrix's.
func TestW1MaskIsExact(t *testing.T) {
	static, x, y, _, _ := trainedModel(t)
	// Every fifth label is wrong, so training keeps mispredicting and the
	// regenerated columns end noisy rather than still zero.
	noisy := slices.Clone(y)
	for i := 0; i < len(noisy); i += 5 {
		noisy[i] = (noisy[i] + 1) % 4
	}
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, noisy,
		core.Options{Classes: 4, Epochs: 4, RegenCycles: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dims := m.ImmatureDims()
	if len(dims) == 0 || len(dims) != m.History[len(m.History)-1].Dropped || static.ImmatureDims() != nil {
		t.Fatalf("ImmatureDims: %d regenerated, %d static", len(dims), len(static.ImmatureDims()))
	}
	q, _ := FromCore(m, bitpack.W1)
	masked := make([]bool, m.Dim())
	for _, j := range dims {
		masked[j] = true
		for r, row := range q.Class.Rows {
			if row.Get(j) != 1 {
				t.Fatalf("masked dim %d of class %d is %d", j, r, row.Get(j))
			}
		}
	}
	plain := bitpack.QuantizeMatrix(m.Class.Data, m.Class.Rows, m.Class.Cols, bitpack.W1)
	r, h, moved := rng.New(7), make([]float32, m.Dim()), 0
	for i := 0; i < 500; i++ {
		r.FillNorm(h, 0, 1)
		qv := bitpack.Quantize(h, bitpack.W1)
		want, best := 0, int64(-1<<62)
		for c, row := range plain.Rows {
			var dot int64
			for j := range h {
				if !masked[j] {
					dot += qv.Get(j) * row.Get(j)
				}
			}
			if dot > best {
				want, best = c, dot
			}
		}
		if got := q.PredictEncoded(h); got != want {
			t.Fatalf("query %d: served %d, masked reference %d", i, got, want)
		}
		if plain.Classify(qv) != want {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the mask moved no verdict; the reference check is vacuous")
	}
	for _, w := range bitpack.Widths {
		for name, src := range map[string]*core.Model{"regenerated": m, "static": static} {
			if w == bitpack.W1 && src == m {
				continue
			}
			q, _ := FromCore(src, w)
			ref := bitpack.QuantizeMatrix(src.Class.Data, src.Class.Rows, src.Class.Cols, w)
			for r := range ref.Rows {
				if !slices.Equal(q.Class.Rows[r].Words, ref.Rows[r].Words) || q.Class.Rows[r].Scale != ref.Rows[r].Scale {
					t.Fatalf("%s w=%d class %d: packed words differ from QuantizeMatrix", name, w, r)
				}
			}
		}
	}
}

// regenerated trains trainedModel's data with noisy labels and three
// regeneration cycles, so its W1 memory has masked columns.
func regenerated(t *testing.T) (*core.Model, *hdc.Matrix) {
	t.Helper()
	_, x, y, _, _ := trainedModel(t)
	noisy := slices.Clone(y)
	for i := 0; i < len(noisy); i += 5 {
		noisy[i] = (noisy[i] + 1) % 4
	}
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, noisy,
		core.Options{Classes: 4, Epochs: 4, RegenCycles: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, x
}

// checkW1Verdicts requires every W1 verdict on the 500 rows of x, through
// Predict, PredictBatchInto (batches of 1, 64 and 300, so the parallel
// path runs too) and PredictEncoded, to equal the stateless full-D
// reference Class.Classify(bitpack.Quantize(h, W1)), and returns them.
func checkW1Verdicts(t *testing.T, name string, q *Model, x *hdc.Matrix) []int {
	t.Helper()
	want := make([]int, x.Rows)
	h := make([]float32, q.Enc.Dim())
	for i := range want {
		q.Enc.Encode(x.Row(i), h)
		want[i] = q.Class.Classify(bitpack.Quantize(h, bitpack.W1))
		if got := q.Predict(x.Row(i)); got != want[i] {
			t.Fatalf("%s query %d: Predict %d, reference %d", name, i, got, want[i])
		}
		if got := q.PredictEncoded(h); got != want[i] {
			t.Fatalf("%s query %d: PredictEncoded %d, reference %d", name, i, got, want[i])
		}
	}
	for _, batch := range []int{1, 64, 300} {
		out := make([]int, batch)
		for lo := 0; lo < x.Rows; lo += batch {
			n := min(batch, x.Rows-lo)
			q.PredictBatchInto(&hdc.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[lo*x.Cols : (lo+n)*x.Cols]}, out[:n])
			for i, got := range out[:n] {
				if got != want[lo+i] {
					t.Fatalf("%s batch %d query %d: PredictBatchInto %d, reference %d", name, batch, lo+i, got, want[lo+i])
				}
			}
		}
	}
	return want
}

// TestW1LiveViewFollowsFaults flips every masked column of one class on
// a model that has already predicted, so those columns are live again,
// and requires Refresh to bring the served verdicts back to the full-D
// reference. It also pins the view's live set to the columns where the
// class rows differ, before and after.
func TestW1LiveViewFollowsFaults(t *testing.T) {
	m, _ := regenerated(t)
	q, _ := FromCore(m, bitpack.W1)
	x := hdc.NewMatrix(500, 12)
	rng.New(31).FillNorm(x.Data, 0, 1.5)
	before := checkW1Verdicts(t, "masked", q, x)
	if live := len(q.view().live); live != m.Dim()-naturallyCommon(q.Class) || live > m.Dim()-len(m.ImmatureDims()) {
		t.Fatalf("live columns %d, want %d", live, m.Dim()-naturallyCommon(q.Class))
	}
	for _, j := range m.ImmatureDims() {
		q.Class.Rows[2].FlipBit(j)
	}
	q.Refresh()
	after := checkW1Verdicts(t, "flipped", q, x)
	if slices.Equal(before, after) {
		t.Fatal("the flips moved no verdict; the check is vacuous")
	}
	if live := len(q.view().live); live != m.Dim()-naturallyCommon(q.Class) {
		t.Fatalf("live columns %d after the flips, want %d", live, m.Dim()-naturallyCommon(q.Class))
	}
	v := q.view()
	got := bitpack.NewVector(len(v.live), bitpack.W1)
	for c, row := range q.Class.Rows {
		v.squeeze(row, got)
		for k, j := range v.live {
			if got.Get(k) != row.Get(j) {
				t.Fatalf("class %d: squeezed bit %d is %d, column %d holds %d", c, k, got.Get(k), j, row.Get(j))
			}
		}
	}
}

// naturallyCommon counts the columns where every class row holds the same
// element, element by element.
func naturallyCommon(class *bitpack.Matrix) int {
	common := 0
	for j := range class.Rows[0].Dim {
		same := true
		for _, row := range class.Rows {
			same = same && row.Get(j) == class.Rows[0].Get(j)
		}
		if same {
			common++
		}
	}
	return common
}

// TestW1LiveViewEdges covers a model with no regeneration, which drops
// only its naturally common columns, and one whose class rows are all
// equal, where no column is live and every verdict is class 0.
func TestW1LiveViewEdges(t *testing.T) {
	static, _, _, xt, _ := trainedModel(t)
	q, _ := FromCore(static, bitpack.W1)
	checkW1Verdicts(t, "static", q, xt)
	if live := len(q.view().live); live != static.Dim()-naturallyCommon(q.Class) || live == static.Dim() {
		t.Fatalf("static model: %d live columns, %d naturally common", live, naturallyCommon(q.Class))
	}
	same := q.Clone()
	for _, row := range same.Class.Rows[1:] {
		copy(row.Words, same.Class.Rows[0].Words)
	}
	for i, got := range checkW1Verdicts(t, "equal rows", same, xt) {
		if got != 0 || len(same.view().live) != 0 {
			t.Fatalf("equal rows, query %d: verdict %d over %d live columns", i, got, len(same.view().live))
		}
	}
}
