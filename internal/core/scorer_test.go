package core

import (
	"math"
	"testing"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// argmaxCosine is the scorer's float64 reference: the row of m most
// cosine-similar to q (float64 Dot over per-call Norms) with that
// similarity. A zero query picks row 0 with similarity 0, a zero row
// scores 0, and ties go to the lowest index — the conventions Scorer
// keeps over the float32 kernels with cached row norms.
func argmaxCosine(m *hdc.Matrix, q []float32) (best int, sim float64) {
	best, sim = -1, math.Inf(-1)
	nq := hdc.Norm(q)
	if nq == 0 {
		return 0, 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		nr := hdc.Norm(row)
		var s float64
		if nr > 0 {
			s = hdc.Dot(row, q) / (nr * nq)
		}
		if s > sim {
			best, sim = r, s
		}
	}
	return best, sim
}

func TestArgmaxCosineReference(t *testing.T) {
	m := hdc.NewMatrix(3, 4)
	copy(m.Row(0), []float32{1, 0, 0, 0})
	copy(m.Row(1), []float32{0, 1, 0, 0})
	copy(m.Row(2), []float32{0, 0, 1, 1})
	q := []float32{0, 0, 2, 2}
	best, sim := argmaxCosine(m, q)
	if best != 2 {
		t.Fatalf("best = %d, want 2", best)
	}
	if math.Abs(sim-1) > 1e-6 {
		t.Fatalf("sim = %v, want 1", sim)
	}
}

func TestArgmaxCosineReferenceZeroQuery(t *testing.T) {
	m := hdc.NewMatrix(2, 3)
	best, sim := argmaxCosine(m, []float32{0, 0, 0})
	if best != 0 || sim != 0 {
		t.Fatalf("zero query: got (%d, %v)", best, sim)
	}
}

// TestScorerMatchesArgmaxCosine checks the cached-norm kernel argmax
// against the naive per-call-norm reference. Both take hdc.Dot's dots;
// the reference also divides by the query norm, a rounding far below the
// separation of these well-spread similarities, so the argmax agrees.
func TestScorerMatchesArgmaxCosine(t *testing.T) {
	m, x, _ := toyModel(t, 5, 256, 9)
	h := make([]float32, m.Dim())
	for i := 0; i < 100; i++ {
		m.Enc.Encode(x.Row(i), h)
		got := m.Scorer().PredictEncoded(h)
		naive, _ := argmaxCosine(m.Class, h)
		if got != naive {
			t.Fatalf("sample %d: scorer %d != naive argmax %d", i, got, naive)
		}
	}
}

// TestPredictScoresAreDot holds the dots both predict paths argmax over,
// score on blocks of one to four queries, to hdc.Dot bit for bit, and the
// verdicts of PredictEncoded and of PredictBatchEncoded — at batch sizes
// covering the four-row blocks, the tail and the parallel fan-out — to
// the scalar argmax of hdc.Dot(row, h)/hdc.Norm(row). Queries are
// in-cluster rows, N(0,1) rows and a zero query; the class memory has a
// zero row and two equal rows, whose tie goes to the lower index.
func TestPredictScoresAreDot(t *testing.T) {
	m, x, _ := toyModel(t, 5, 256, 9)
	class, k := hdc.NewMatrix(7, 256), 7
	copy(class.Data, m.Class.Data)
	copy(class.Row(6), class.Row(2)) // row 5 stays zero
	s, qs := newScorer(class), hdc.NewMatrix(600, 256)
	copy(qs.Data, encoder.EncodeBatch(m.Enc, x).Data[:300*256])
	rng.New(31).FillNorm(qs.Data[300*256:], 0, 1)
	hdc.Zero(qs.Row(2))
	want := make([]int, qs.Rows)
	for i := range want {
		best, bv := 0, math.Inf(-1)
		for r := range k {
			var v float64
			if nr := hdc.Norm(class.Row(r)); nr > 0 {
				v = hdc.Dot(class.Row(r), qs.Row(i)) / nr
			}
			if v > bv {
				best, bv = r, v
			}
		}
		want[i] = best
	}
	if want[7] != 2 {
		t.Fatalf("query 7 of class 2 picks %d: the tie between rows 2 and 6 is not exercised", want[7])
	}
	dots := make([]float64, 4*k)
	for i := 0; i < qs.Rows; i += 4 {
		for n := 1; n <= 4; n++ {
			q := [][]float32{qs.Row(i), qs.Row(i + 1), qs.Row(i + 2), qs.Row(i + 3)}[:n]
			s.score(q, dots)
			for j := range q {
				for r := range k {
					if got, d := dots[j*k+r], hdc.Dot(class.Row(r), q[j]); math.Float64bits(got) != math.Float64bits(d) {
						t.Fatalf("query %d of a block of %d, row %d: score %v != hdc.Dot %v", i+j, n, r, got, d)
					}
				}
			}
			if got := s.PredictEncoded(qs.Row(i + n - 1)); got != want[i+n-1] {
				t.Fatalf("query %d: PredictEncoded %d, reference %d", i+n-1, got, want[i+n-1])
			}
		}
	}
	for _, b := range []int{1, 3, 4, 5, 64, 300} {
		out := make([]int, b)
		for lo := 0; lo < qs.Rows; lo += b {
			n := min(b, qs.Rows-lo)
			s.PredictBatchEncoded(&hdc.Matrix{Rows: n, Cols: 256, Data: qs.Data[lo*256 : (lo+n)*256]}, out[:n])
			for j, got := range out[:n] {
				if got != want[lo+j] {
					t.Fatalf("batch %d query %d: PredictBatchEncoded %d, reference %d", b, lo+j, got, want[lo+j])
				}
			}
		}
	}
}

// TestBatchPredictionBitIdentical is the blocking-determinism test at the
// prediction level: the batch path must agree exactly with repeated
// single-query prediction — same kernels, different tiling.
func TestBatchPredictionBitIdentical(t *testing.T) {
	m, x, _ := toyModel(t, 4, 192, 9)
	batch := m.PredictBatch(x)
	h := make([]float32, m.Dim())
	for i := 0; i < x.Rows; i++ {
		m.Enc.Encode(x.Row(i), h)
		if single := m.Scorer().PredictEncoded(h); single != batch[i] {
			t.Fatalf("sample %d: single %d != batch %d", i, single, batch[i])
		}
	}
	// And the pre-encoded batch entry point.
	enc := encoder.EncodeBatch(m.Enc, x)
	encBatch := make([]int, enc.Rows)
	m.Scorer().PredictBatchEncoded(enc, encBatch)
	for i := range batch {
		if encBatch[i] != batch[i] {
			t.Fatalf("sample %d: PredictBatchEncoded %d != PredictBatch %d", i, encBatch[i], batch[i])
		}
	}
}

// TestScorerNormInvalidation covers the three mutation paths: adaptive
// updates (refreshRow via updateNormed), column drops (Refresh), and
// manual row edits.
func TestScorerNormInvalidation(t *testing.T) {
	m, x, y := toyModel(t, 3, 64, 9)
	check := func(stage string) {
		t.Helper()
		for r, cached := range m.Scorer().norms {
			if fresh := hdc.Norm(m.Class.Row(r)); math.Abs(fresh-cached) > 1e-9 {
				t.Fatalf("%s: stale norm at row %d: cached %v fresh %v", stage, r, cached, fresh)
			}
		}
	}
	check("after training")
	h, sims := make([]float32, m.Dim()), make([]float64, m.NumClasses())
	for i := 0; i < 50; i++ {
		m.Enc.Encode(x.Row(i), h)
		m.updateNormed(h, hdc.Norm(h), (y[i]+1)%m.NumClasses(), sims)
	}
	check("after updates")
	m.Class.ZeroColumns([]int{0, 5, 9})
	m.Scorer().Refresh()
	check("after ZeroColumns+refresh")
}

func TestSimilarities(t *testing.T) {
	m := hdc.NewMatrix(3, 2)
	copy(m.Row(0), []float32{1, 0})
	copy(m.Row(1), []float32{0, 1})
	s, q, out := newScorer(m), []float32{1, 1}, make([]float64, 3)
	s.similarities(q, hdc.Norm(q), out)
	inv := 1 / math.Sqrt2
	if math.Abs(out[0]-inv) > 1e-6 || math.Abs(out[1]-inv) > 1e-6 || out[2] != 0 {
		t.Fatalf("similarities = %v, want [%v %v 0] (a zero row scores 0)", out, inv, inv)
	}
	if s.similarities([]float32{0, 0}, 0, out); out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Fatalf("zero query: similarities = %v, want all 0", out)
	}
}

// TestSimilaritiesTracksUpdates drives the learning rule's access pattern
// — random Axpy into one row then refreshRow, and a Refresh after dropped
// columns — and requires similarities to equal the hdc.Dot / hdc.Norm
// reference exactly at every step.
func TestSimilaritiesTracksUpdates(t *testing.T) {
	r := rng.New(21)
	class := hdc.NewMatrix(9, 130)
	r.FillNorm(class.Data, 0, 1)
	s, h, got := newScorer(class), make([]float32, 130), make([]float64, 9)
	for step := 0; step < 200; step++ {
		r.FillNorm(h, 0, 1)
		s.similarities(h, hdc.Norm(h), got)
		for c, g := range got {
			want := hdc.Dot(class.Row(c), h) / (hdc.Norm(class.Row(c)) * hdc.Norm(h))
			if math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("step %d class %d: similarities %v != reference %v", step, c, g, want)
			}
		}
		c := r.Intn(9)
		hdc.Axpy(r.NormFloat32(), h, class.Row(c))
		s.refreshRow(c)
		if step == 100 {
			class.ZeroColumns([]int{0, 3, 64, 129})
			s.Refresh()
		}
	}
}

// TestPredictAllocFree pins the pooled-scratch contract: steady-state
// Predict, the learning rule's updateNormed, and micro-batch prediction
// perform zero allocations.
func TestPredictAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, x, y := toyModel(t, 5, 512, 9)
	q := x.Row(0)
	m.Predict(q) // warm the pools
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(q) }); allocs != 0 {
		t.Errorf("Predict allocates %.1f objects per call", allocs)
	}
	h, sims := make([]float32, m.Dim()), make([]float64, m.NumClasses())
	m.Enc.Encode(q, h)
	hNorm := hdc.Norm(h)
	m.updateNormed(h, hNorm, y[0], sims)
	if allocs := testing.AllocsPerRun(100, func() { m.updateNormed(h, hNorm, y[0], sims) }); allocs != 0 {
		t.Errorf("updateNormed allocates %.1f objects per call", allocs)
	}
	batch := &hdc.Matrix{Rows: 64, Cols: x.Cols, Data: x.Data[:64*x.Cols]}
	out := make([]int, 64)
	m.PredictBatchInto(batch, out)
	if allocs := testing.AllocsPerRun(50, func() { m.PredictBatchInto(batch, out) }); allocs != 0 {
		t.Errorf("PredictBatchInto allocates %.1f objects per call", allocs)
	}
}

// TestScorerManyClasses exercises the pooled (non-stack) score buffer.
func TestScorerManyClasses(t *testing.T) {
	r := rng.New(9)
	class := hdc.NewMatrix(stackClasses+13, 96)
	r.FillNorm(class.Data, 0, 1)
	s := newScorer(class)
	q := make([]float32, 96)
	for trial := 0; trial < 20; trial++ {
		r.FillNorm(q, 0, 1)
		got := s.PredictEncoded(q)
		want, _ := argmaxCosine(class, q)
		if got != want {
			t.Fatalf("trial %d: pooled-path scorer %d != naive %d", trial, got, want)
		}
	}
}

// TestScorerQueryLengthPanics preserves the seed's contract: a query of
// the wrong dimensionality must panic, not silently score a prefix.
func TestScorerQueryLengthPanics(t *testing.T) {
	s := newScorer(hdc.NewMatrix(3, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short query")
		}
	}()
	s.PredictEncoded(make([]float32, 3))
}

// TestKernelAccuracyParity pins batch prediction to the float64 cosine
// reference end-to-end: on a trained model over a full test split, the
// accuracy of kernel-scored batch prediction must match argmaxCosine's,
// which also divides by the query norm, to well under a point.
func TestKernelAccuracyParity(t *testing.T) {
	m, x, y := toyModel(t, 5, 256, 9)
	preds := m.PredictBatch(x)
	enc := encoder.EncodeBatch(m.Enc, x)
	kernelAcc, refAcc, disagree := 0, 0, 0
	for i := 0; i < x.Rows; i++ {
		ref, _ := argmaxCosine(m.Class, enc.Row(i))
		if preds[i] == y[i] {
			kernelAcc++
		}
		if ref == y[i] {
			refAcc++
		}
		if ref != preds[i] {
			disagree++
		}
	}
	if d := float64(disagree) / float64(x.Rows); d > 0.005 {
		t.Errorf("kernel vs float64 argmax disagree on %.2f%% of samples", 100*d)
	}
	if diff := kernelAcc - refAcc; diff > 2 || diff < -2 {
		t.Errorf("accuracy moved: kernel %d vs float64 %d of %d", kernelAcc, refAcc, x.Rows)
	}
}

// TestScorerZeroQueryAndRows matches argmaxCosine conventions.
func TestScorerZeroQueryAndRows(t *testing.T) {
	class := hdc.NewMatrix(3, 8)
	s := newScorer(class) // all rows zero
	q := make([]float32, 8)
	if got := s.PredictEncoded(q); got != 0 {
		t.Errorf("all-zero scoring should return class 0, got %d", got)
	}
	class.Row(2)[1] = 1
	s.Refresh()
	q[1] = 1
	if got := s.PredictEncoded(q); got != 2 {
		t.Errorf("expected class 2, got %d", got)
	}
}
