package core

import (
	"slices"
	"sync"
	"testing"

	"cyberhd/internal/hdc"
)

func TestCOWPredictMatchesModel(t *testing.T) {
	m, x, _ := toyModel(t, 3, 64, 9)
	ref, _, _ := toyModel(t, 3, 64, 9)
	cow := NewCOWModel(m)
	if cow.Dim() != ref.Dim() || cow.NumClasses() != ref.NumClasses() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", cow.NumClasses(), cow.Dim(), ref.NumClasses(), ref.Dim())
	}
	out := make([]int, x.Rows)
	cow.PredictBatchInto(x, out)
	for i := 0; i < x.Rows; i++ {
		want := ref.Predict(x.Row(i))
		if got := cow.Predict(x.Row(i)); got != want {
			t.Fatalf("sample %d: cow.Predict %d != model %d", i, got, want)
		}
		if out[i] != want {
			t.Fatalf("sample %d: cow batch %d != model %d", i, out[i], want)
		}
	}
}

func TestCOWSnapshotImmutable(t *testing.T) {
	m, x, _ := toyModel(t, 3, 64, 9)
	next, _, _ := toyModel(t, 3, 64, 9)
	cow := NewCOWModel(m)
	old := cow.Snapshot()
	oldClass := old.Class.Clone()
	oldEnc := make([]float32, old.Class.Cols)
	old.Enc.Encode(x.Row(0), oldEnc)

	// A hot reload brings in a model whose encoder has regenerated
	// dimensions: the published snapshot must keep its own pair.
	dims := []int{0, 1, 2, 3}
	next.Class.ZeroColumns(dims)
	next.Enc.Regenerate(dims)
	next.Scorer().Refresh()
	if err := cow.ReplaceModel(next); err != nil {
		t.Fatal(err)
	}

	if !old.Class.Equal(oldClass) {
		t.Fatal("published snapshot's class matrix changed after a later publication")
	}
	h := make([]float32, old.Class.Cols)
	old.Enc.Encode(x.Row(0), h)
	for d := range h {
		if h[d] != oldEnc[d] {
			t.Fatalf("published snapshot's encoder changed at dim %d after the reload", d)
		}
	}
	if cur := cow.Snapshot(); cur.Version <= old.Version {
		t.Fatalf("live version %d did not advance past %d", cur.Version, old.Version)
	}
}

// TestCOWSetDerive checks the derive hook: it derives for the live model
// at once, at the same version and returning the snapshot it built, runs
// again on every subsequent publication with the model published, and
// its artifact rides the snapshot the readers load.
func TestCOWSetDerive(t *testing.T) {
	m, _, _ := toyModel(t, 3, 64, 9)
	next, _, _ := toyModel(t, 3, 64, 9)
	cow := NewCOWModel(m)
	if cow.Snapshot().Derived() != nil {
		t.Fatal("derived artifact present before SetDerive")
	}
	v0 := cow.Version()
	calls := 0
	var got *Model
	derived := cow.SetDerive(func(w *Model) any {
		calls++
		got = w
		return w.Class.Rows * 1000 // any artifact; count identifies the call
	})
	if cow.Version() != v0 || derived != cow.Snapshot() {
		t.Fatalf("SetDerive moved the version %d -> %d or returned another snapshot than the live one", v0, cow.Version())
	}
	if calls != 1 || got != m || cow.Snapshot().Derived() != 3000 {
		t.Fatalf("derive ran %d times (on the live model: %v), artifact %v", calls, got == m, cow.Snapshot().Derived())
	}
	// A hot reload must re-derive, from the model it publishes.
	if err := cow.ReplaceModel(next); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || got != next {
		t.Fatalf("derive ran %d times after a publication (on the published model: %v), want 2", calls, got == next)
	}
	snap := cow.Snapshot()
	if snap.Derived() != 3000 {
		t.Fatalf("snapshot artifact %v", snap.Derived())
	}
	if snap.Version != v0+1 {
		t.Fatalf("version %d, want %d", snap.Version, v0+1)
	}
}

// constClassifier is a derived artifact that classifies every query as c.
type constClassifier int

func (c constClassifier) Predict([]float32) int { return int(c) }

func (c constClassifier) PredictBatchInto(_ *hdc.Matrix, out []int) {
	for i := range out {
		out[i] = int(c)
	}
}

// TestCOWServesDerivedClassifier: an artifact that classifies serves the
// COWModel's verdicts, single and batch, from the publication that derives
// it; one that does not leaves the model serving.
func TestCOWServesDerivedClassifier(t *testing.T) {
	m, x, _ := toyModel(t, 3, 64, 9)
	cow := NewCOWModel(m)
	cow.SetDerive(func(*Model) any { return 7 })
	out := make([]int, x.Rows)
	cow.PredictBatchInto(x, out)
	if !slices.Equal(out, m.PredictBatch(x)) || cow.Predict(x.Row(0)) != out[0] {
		t.Fatal("a non-classifier artifact changed the verdicts")
	}
	cow.SetDerive(func(*Model) any { return constClassifier(7) })
	cow.PredictBatchInto(x, out)
	if cow.Predict(x.Row(0)) != 7 || slices.ContainsFunc(out, func(c int) bool { return c != 7 }) {
		t.Fatalf("derived classifier not served: Predict %d, batch %v", cow.Predict(x.Row(0)), out[:4])
	}
}

// TestCOWConcurrentReadersAndWriter is the race-detector workout for the
// atomic swap: reader goroutines classify continuously while the
// publisher alternates hot reloads of models with regenerated encoder
// dimensions and of the original.
// Correctness here is "no race, no torn state": every prediction must be
// a valid class index and every loaded snapshot internally consistent.
func TestCOWConcurrentReadersAndWriter(t *testing.T) {
	m, x, _ := toyModel(t, 3, 64, 9)
	cow := NewCOWModel(m)
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]int, x.Rows)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					if p := cow.Predict(x.Row(i % x.Rows)); p < 0 || p >= 3 {
						errs <- "prediction out of range"
						return
					}
				} else {
					cow.PredictBatchInto(x, out)
				}
				snap := cow.Snapshot()
				if snap.Class.Rows != 3 || snap.Class.Cols != snap.Enc.Dim() {
					errs <- "inconsistent snapshot shape"
					return
				}
			}
		}(r)
	}
	for pass := 0; pass < 3; pass++ {
		next, _, _ := toyModel(t, 3, 64, 9)
		dims := []int{pass, pass + 8, pass + 16}
		next.Class.ZeroColumns(dims)
		next.Enc.Regenerate(dims)
		next.Scorer().Refresh()
		for _, pub := range []*Model{next, m} {
			if err := cow.ReplaceModel(pub); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
