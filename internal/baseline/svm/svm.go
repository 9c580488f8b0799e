// Package svm implements the paper's SVM comparison baseline [9] from
// scratch: a one-vs-rest linear SVM trained with the Pegasos subgradient
// method, and a kernelized (RBF) variant whose O(n·sv) prediction and
// O(n²)-flavored training reproduce the "extraordinarily long" SVM
// runtimes the paper reports on large cybersecurity datasets.
package svm

import (
	"fmt"
	"math"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// LinearOptions configures TrainLinear.
type LinearOptions struct {
	// Lambda is the Pegasos regularization strength. Defaults to 1e-4.
	Lambda float64
	// Epochs over the training set. Defaults to 10.
	Epochs int
	// Seed drives sampling order.
	Seed uint64
}

func (o *LinearOptions) defaults() {
	if o.Lambda <= 0 {
		o.Lambda = 1e-4
	}
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
}

// Linear is a one-vs-rest linear SVM.
type Linear struct {
	// W is the k×f weight matrix (one binary classifier per row).
	W *hdc.Matrix
	// B holds per-class bias terms.
	B       []float32
	classes int
}

// TrainLinear fits a one-vs-rest Pegasos linear SVM.
func TrainLinear(x *hdc.Matrix, y []int, classes int, opts LinearOptions) (*Linear, error) {
	opts.defaults()
	if err := validate(x, y, classes); err != nil {
		return nil, err
	}
	m := &Linear{W: hdc.NewMatrix(classes, x.Cols), B: make([]float32, classes), classes: classes}
	for c := 0; c < classes; c++ {
		r := rng.New(opts.Seed + uint64(c)*0x9e3779b9)
		w := m.W.Row(c)
		var b float64
		t := 0
		order := make([]int, x.Rows)
		for i := range order {
			order[i] = i
		}
		for epoch := 0; epoch < opts.Epochs; epoch++ {
			r.ShuffleInts(order)
			for _, i := range order {
				t++
				eta := 1 / (opts.Lambda * float64(t))
				yi := float64(-1)
				if y[i] == c {
					yi = 1
				}
				margin := yi * (hdc.Dot(w, x.Row(i)) + b)
				// w ← (1 − η λ) w [+ η y x if margin violated]
				hdc.Scale(float32(1-eta*opts.Lambda), w)
				if margin < 1 {
					hdc.Axpy(float32(eta*yi), x.Row(i), w)
					b += eta * yi * 0.01 // damped bias update (standard Pegasos trick)
				}
			}
		}
		m.B[c] = float32(b)
	}
	return m, nil
}

// Predict returns the class whose binary decision value is largest.
func (m *Linear) Predict(x []float32) int {
	best, bv := 0, math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		if v := hdc.Dot(m.W.Row(c), x) + float64(m.B[c]); v > bv {
			best, bv = c, v
		}
	}
	return best
}

// PredictBatch classifies every row of x in parallel.
func (m *Linear) PredictBatch(x *hdc.Matrix) []int {
	out := make([]int, x.Rows)
	hdc.ParallelChunks(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Predict(x.Row(i))
		}
	})
	return out
}

// KernelOptions configures TrainKernel.
type KernelOptions struct {
	// Lambda is the Pegasos regularization strength. Defaults to 1e-4.
	Lambda float64
	// Gamma is the RBF kernel bandwidth: K(a,b) = exp(−γ‖a−b‖²).
	// Defaults to 1/f.
	Gamma float64
	// Epochs over the training set. Defaults to 3 (kernel training is
	// O(epochs · n · sv) and deliberately expensive).
	Epochs int
	// Seed drives sampling order.
	Seed uint64
}

func (o *KernelOptions) defaults(features int) {
	if o.Lambda <= 0 {
		o.Lambda = 1e-4
	}
	if o.Gamma <= 0 {
		o.Gamma = 1 / float64(features)
	}
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
}

// Kernel is a one-vs-rest kernelized SVM with an RBF kernel. It stores the
// full training set and per-class dual coefficients (kernelized Pegasos).
type Kernel struct {
	X       *hdc.Matrix
	Alpha   [][]float32 // classes × n dual counts (signed by label)
	Gamma   float64
	Lambda  float64
	T       int // total Pegasos steps taken per class
	classes int
}

// TrainKernel fits a kernelized Pegasos SVM. Training evaluates the kernel
// against every current support vector per step, which is the quadratic
// cost that makes SVMs impractical on million-sample NIDS datasets.
func TrainKernel(x *hdc.Matrix, y []int, classes int, opts KernelOptions) (*Kernel, error) {
	opts.defaults(x.Cols)
	if err := validate(x, y, classes); err != nil {
		return nil, err
	}
	m := &Kernel{
		X: x, Gamma: opts.Gamma, Lambda: opts.Lambda, classes: classes,
		Alpha: make([][]float32, classes),
	}
	for c := range m.Alpha {
		m.Alpha[c] = make([]float32, x.Rows)
	}
	steps := opts.Epochs * x.Rows
	m.T = steps
	for c := 0; c < classes; c++ {
		r := rng.New(opts.Seed + uint64(c)*0x85ebca6b)
		alpha := m.Alpha[c]
		for t := 1; t <= steps; t++ {
			i := r.Intn(x.Rows)
			yi := float32(-1)
			if y[i] == c {
				yi = 1
			}
			dec := m.decisionAt(c, x.Row(i), t)
			if float64(yi)*dec < 1 {
				alpha[i] += yi
			}
		}
	}
	return m, nil
}

// decisionAt computes the (unnormalized by final T) decision value using
// the dual expansion at step t.
func (m *Kernel) decisionAt(c int, q []float32, t int) float64 {
	var s float64
	alpha := m.Alpha[c]
	for i, a := range alpha {
		if a == 0 {
			continue
		}
		s += float64(a) * m.kernel(m.X.Row(i), q)
	}
	return s / (m.Lambda * float64(t))
}

func (m *Kernel) kernel(a, b []float32) float64 {
	var d2 float64
	for i := range a {
		diff := float64(a[i] - b[i])
		d2 += diff * diff
	}
	return math.Exp(-m.Gamma * d2)
}

// Decision returns the decision value of class c for query q.
func (m *Kernel) Decision(c int, q []float32) float64 {
	return m.decisionAt(c, q, m.T)
}

// Predict returns the class with the largest decision value. Cost is
// O(classes · support vectors), the paper's slow-inference mechanism.
func (m *Kernel) Predict(x []float32) int {
	best, bv := 0, math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		if v := m.Decision(c, x); v > bv {
			best, bv = c, v
		}
	}
	return best
}

func validate(x *hdc.Matrix, y []int, classes int) error {
	if classes < 2 {
		return fmt.Errorf("svm: need at least 2 classes, got %d", classes)
	}
	if x.Rows != len(y) || x.Rows == 0 {
		return fmt.Errorf("svm: %d samples, %d labels", x.Rows, len(y))
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return fmt.Errorf("svm: label %d at sample %d out of range", l, i)
		}
	}
	return nil
}
