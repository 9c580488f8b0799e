package quantize

import (
	"slices"
	"sync"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// TestBatchMatchesPerSampleAllWidths pins the acceptance contract: batch
// prediction is bit-identical to per-sample Predict at every supported
// width, for batch sizes on both sides of the parallel threshold.
func TestBatchMatchesPerSampleAllWidths(t *testing.T) {
	m, _, _, xt, _ := trainedModel(t)
	for _, w := range bitpack.Widths {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		batch := q.PredictBatch(xt)
		for i := 0; i < xt.Rows; i++ {
			if p := q.Predict(xt.Row(i)); p != batch[i] {
				t.Fatalf("w=%d row %d: Predict %d != PredictBatch %d", w, i, p, batch[i])
			}
		}
	}
}

// TestPredictAllocFree pins the zero-allocation contract of steady-state
// quantized prediction, single and batch.
func TestPredictAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, x, _, _, _ := trainedModel(t)
	for _, w := range []bitpack.Width{bitpack.W1, bitpack.W8, bitpack.W32} {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		sample := x.Row(0)
		q.Predict(sample) // warm pools and the lazy scorer
		if allocs := testing.AllocsPerRun(100, func() { q.Predict(sample) }); allocs != 0 {
			t.Errorf("w=%d: Predict allocates %.2f objects per call", w, allocs)
		}
		batch := &hdc.Matrix{Rows: 16, Cols: x.Cols, Data: x.Data[:16*x.Cols]}
		out := make([]int, batch.Rows)
		q.PredictBatchInto(batch, out)
		if allocs := testing.AllocsPerRun(50, func() { q.PredictBatchInto(batch, out) }); allocs != 0 {
			t.Errorf("w=%d: PredictBatchInto allocates %.2f objects per call", w, allocs)
		}
	}
}

// TestScorerAgreesWithClassify checks the model's cached-norm scoring path
// against the stateless bitpack.Matrix.Classify on trained class memory.
func TestScorerAgreesWithClassify(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	h := make([]float32, m.Enc.Dim())
	for _, w := range bitpack.Widths {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			m.Enc.Encode(x.Row(i), h)
			packed := bitpack.Quantize(h, w)
			if got, want := q.PredictEncoded(h), q.Class.Classify(packed); got != want {
				t.Fatalf("w=%d sample %d: scorer %d != Classify %d", w, i, got, want)
			}
		}
	}
}

// TestLiveMatchesFromCore: with no publication in flight, an attached
// COWModel must predict exactly like a one-shot FromCore at the same width.
// Before the attach it serves its float model, which disagrees with the
// 1-bit one on some of these off-cluster queries.
func TestLiveMatchesFromCore(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	xt := hdc.NewMatrix(500, 12)
	rng.New(3).FillNorm(xt.Data, 0, 1)
	ref, err := FromCore(m, bitpack.W1)
	if err != nil {
		t.Fatal(err)
	}
	want, float := ref.PredictBatch(xt), m.PredictBatch(xt)
	if slices.Equal(want, float) {
		t.Fatal("float and 1-bit verdicts agree on every row; the test is vacuous")
	}
	cow := core.NewCOWModel(m)
	out := make([]int, xt.Rows)
	cow.PredictBatchInto(xt, out)
	if !slices.Equal(out, float) {
		t.Fatal("unattached COWModel does not serve its float model")
	}
	AttachLive(cow)
	cow.PredictBatchInto(xt, out)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("row %d: live %d != FromCore %d", i, out[i], want[i])
		}
		if p := cow.Predict(xt.Row(i)); p != want[i] {
			t.Fatalf("row %d: live Predict %d != FromCore %d", i, p, want[i])
		}
	}
}

// retrained fits a second model on trainedModel's data and geometry with
// another encoder and shuffle seed: a hot-reload candidate.
func retrained(t *testing.T, x *hdc.Matrix, y []int) *core.Model {
	t.Helper()
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 8), x, y, core.Options{Classes: 4, Epochs: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLiveRequantizesOnPublish: publishing a retrained model must publish
// a new version whose packed memory is rebuilt from it.
func TestLiveRequantizesOnPublish(t *testing.T) {
	m, x, y, _, _ := trainedModel(t)
	cow := core.NewCOWModel(m)
	AttachLive(cow)
	v0 := cow.Version()
	q0 := cow.Snapshot().Derived().(*Model)
	if err := cow.ReplaceModel(retrained(t, x, y)); err != nil {
		t.Fatal(err)
	}
	if cow.Version() != v0+1 {
		t.Fatalf("version did not advance by one: %d -> %d", v0, cow.Version())
	}
	q1 := cow.Snapshot().Derived().(*Model)
	if q1 == q0 {
		t.Fatal("publication did not rebuild the quantized model")
	}
	if q1.Width != bitpack.W1 {
		t.Fatalf("re-quantized at width %d", q1.Width)
	}
	// The new packed memory must differ from the old somewhere.
	same := true
	for r := range q0.Class.Rows {
		a, b := q0.Class.Rows[r], q1.Class.Rows[r]
		for k := range a.Words {
			if a.Words[k] != b.Words[k] {
				same = false
			}
		}
		if a.Scale != b.Scale {
			same = false
		}
	}
	if same {
		t.Fatal("packed class memory identical across a model-changing publish")
	}
}

// TestLiveConcurrentPredictAndUpdate drives single and batch
// classification from several goroutines while hot reloads alternate two
// models — the COW contract the sharded engine relies on (meaningful
// under -race). Every verdict must be model a's or model b's verdict for
// its row; b learned shifted labels, so the two disagree.
func TestLiveConcurrentPredictAndUpdate(t *testing.T) {
	a, x, y, xt, _ := trainedModel(t)
	shifted := make([]int, len(y))
	for i, l := range y {
		shifted[i] = (l + 1) % 4
	}
	b := retrained(t, x, shifted)
	verdicts := func(m *core.Model) []int {
		q, err := FromCore(m, bitpack.W1)
		if err != nil {
			t.Fatal(err)
		}
		return q.PredictBatch(xt)
	}
	wa, wb := verdicts(a), verdicts(b)
	if slices.Equal(wa, wb) {
		t.Fatal("the two models agree on every row; the test is vacuous")
	}
	cow := core.NewCOWModel(a)
	AttachLive(cow)
	check := func(r, p int) bool {
		if p != wa[r] && p != wb[r] {
			t.Errorf("row %d: verdict %d is neither model's (%d, %d)", r, p, wa[r], wb[r])
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, xt.Rows)
			for i := g; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					if r := i % xt.Rows; !check(r, cow.Predict(xt.Row(r))) {
						return
					}
					continue
				}
				cow.PredictBatchInto(xt, out)
				for r, p := range out {
					if !check(r, p) {
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		if err := cow.ReplaceModel(next); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
