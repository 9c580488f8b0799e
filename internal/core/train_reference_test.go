package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// trainScalarReference is the training loop as it stood before it moved
// onto the kernel layer, kept as the differential reference for Train:
// one hdc.Dot per class and one hdc.Norm of the query per visit, class
// norms refreshed row by row, and regenerated dimensions re-encoded one
// at a time through hdc.DotLanes and hdc.Cos32. It reports the number of
// updates applied so a caller can tell the comparison was not vacuous.
func trainScalarReference(enc *encoder.RBF, x *hdc.Matrix, y []int, opts Options) (*Model, int) {
	opts.defaults()
	m := &Model{Enc: enc, Class: hdc.NewMatrix(opts.Classes, enc.Dim()), EffectiveDim: enc.Dim(), opts: opts}
	r := rng.New(opts.Seed)
	enc2 := hdc.NewMatrix(x.Rows, enc.Dim())
	for i := 0; i < x.Rows; i++ {
		enc.Encode(x.Row(i), enc2.Row(i))
		hdc.Axpy(1, enc2.Row(i), m.Class.Row(y[i]))
	}
	updates := 0
	dot := hdc.Dot // the scalar definition of the float64 lane contract
	round := func(cycle, dropped int) {
		norms := make([]float64, opts.Classes)
		for c := range norms {
			norms[c] = hdc.Norm(m.Class.Row(c))
		}
		order := make([]int, x.Rows)
		for i := range order {
			order[i] = i
		}
		sims := make([]float64, opts.Classes)
		for e := 0; e < opts.Epochs; e++ {
			r.ShuffleInts(order)
			for _, i := range order {
				h := enc2.Row(i)
				nq := hdc.Norm(h)
				for c := range sims {
					sims[c] = 0
					if nq != 0 && norms[c] != 0 {
						sims[c] = dot(m.Class.Row(c), h) / (norms[c] * nq)
					}
				}
				pred := argmax(sims)
				if pred == y[i] {
					continue
				}
				updates++
				hdc.Axpy(float32(opts.LearningRate*(1-sims[y[i]])), h, m.Class.Row(y[i]))
				hdc.Axpy(float32(-opts.LearningRate*(1-sims[pred])), h, m.Class.Row(pred))
				norms[y[i]] = hdc.Norm(m.Class.Row(y[i]))
				norms[pred] = hdc.Norm(m.Class.Row(pred))
			}
		}
		m.Scorer().Refresh()
		correct, preds := 0, make([]int, x.Rows)
		m.Scorer().PredictBatchEncoded(enc2, preds)
		for i, p := range preds {
			if p == y[i] {
				correct++
			}
		}
		m.History = append(m.History, CycleStats{
			Cycle: cycle, Dropped: dropped, EffectiveDim: m.EffectiveDim,
			TrainAcc: float64(correct) / float64(x.Rows),
		})
	}
	round(0, 0)
	drop := int(opts.RegenRate * float64(enc.Dim()))
	for cycle := 1; cycle <= opts.RegenCycles && drop > 0; cycle++ {
		dims := m.insignificantDims(drop)
		if opts.DropSelector != nil {
			dims = opts.DropSelector(m, drop)
		}
		m.Class.ZeroColumns(dims)
		enc.Regenerate(dims)
		st := encoder.CaptureState(enc)
		for i := 0; i < x.Rows; i++ {
			for _, d := range dims {
				enc2.Row(i)[d] = hdc.Cos32(hdc.DotLanes(st.Base[d*st.InDim:(d+1)*st.InDim], x.Row(i)) + st.Bias[d])
			}
		}
		m.EffectiveDim += len(dims)
		round(cycle, len(dims))
	}
	return m, updates
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainMatchesScalarReference: the kernel-layer training loop
// (Scorer.similarities on the float64 class panel, query norms once per
// round, panel re-encode of regenerated dimensions) trains the same bytes
// as the scalar loop it replaced — class memory, regenerated encoder,
// history and D* — at dimensions on and off the kernels' lane multiples
// and class counts below, at and past the eight-row pass, with and without
// regeneration and a selector.
func TestTrainMatchesScalarReference(t *testing.T) {
	everyOther := func(m *Model, drop int) []int {
		dims := make([]int, drop)
		for i := range dims {
			dims[i] = 2*i + 1
		}
		return dims
	}
	for _, dim := range []int{512, 130, 67} {
		for _, classes := range []int{2, 8, 9} {
			for _, cycles := range []int{0, 3} {
				for _, selector := range []func(*Model, int) []int{nil, everyOther} {
					name := fmt.Sprintf("D=%d/k=%d/cycles=%d/selector=%v", dim, classes, cycles, selector != nil)
					x, y := blobs(330, 11, classes, 1.5, 7, 8)
					opts := Options{Classes: classes, Epochs: 3, RegenCycles: cycles, LearningRate: 0.1, Seed: 5, DropSelector: selector}
					want, updates := trainScalarReference(encoder.NewRBF(11, dim, 0, 9), x, y, opts)
					got, err := Train(encoder.NewRBF(11, dim, 0, 9), x, y, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if updates == 0 {
						t.Fatalf("%s: the reference applied no update; the comparison is vacuous", name)
					}
					if !sameBits(got.Class.Data, want.Class.Data) {
						t.Errorf("%s: class memory differs from the scalar reference", name)
					}
					gs, ws := encoder.CaptureState(got.Enc), encoder.CaptureState(want.Enc)
					if !sameBits(gs.Base, ws.Base) || !sameBits(gs.Bias, ws.Bias) || gs.RNG != ws.RNG {
						t.Errorf("%s: encoder differs from the scalar reference", name)
					}
					if !reflect.DeepEqual(got.History, want.History) || got.EffectiveDim != want.EffectiveDim {
						t.Errorf("%s: history %v D*=%d, reference %v D*=%d", name, got.History, got.EffectiveDim, want.History, want.EffectiveDim)
					}
				}
			}
		}
	}
}

// TestAdaptiveEpochsAllocatesNothingPerSample pins the epoch loop's
// allocation budget: a round over thousands of samples costs the handful
// of objects the parallel norm pass spawns, not one per visit.
func TestAdaptiveEpochsAllocatesNothingPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x, y := blobs(2000, 11, 8, 1.5, 7, 8)
	m, err := Train(encoder.NewRBF(11, 128, 0, 9), x, y, Options{Classes: 8, Epochs: 3, LearningRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := &fit{
		enc:   encoder.EncodeBatch(m.Enc, x),
		norms: make([]float64, x.Rows),
		order: make([]int, x.Rows),
		sims:  make([]float64, 4*8),
	}
	r := rng.New(1)
	if allocs := testing.AllocsPerRun(5, func() { m.adaptiveEpochs(f, y, r) }); allocs > 16 {
		t.Errorf("adaptiveEpochs allocated %.0f objects over %d visits", allocs, 3*x.Rows)
	}
}
