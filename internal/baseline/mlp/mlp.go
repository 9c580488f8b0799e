// Package mlp implements the paper's DNN comparison baseline [8]: a
// multilayer perceptron with ReLU hidden layers and a softmax cross-entropy
// output, trained by minibatch SGD with momentum. It is written from
// scratch on the repository's matrix substrate — no external dependencies.
//
// The float32 weight tensors are exposed via Weights so the Fig 5
// robustness experiment can inject bit flips into them.
package mlp

import (
	"fmt"
	"math"

	"cyberhd/internal/hdc"
	"cyberhd/internal/metrics"
	"cyberhd/internal/rng"
)

// Options configures training.
type Options struct {
	// Hidden lists hidden-layer widths, e.g. {256, 128}. Defaults to that.
	Hidden []int
	// LearningRate for SGD. Defaults to 0.05.
	LearningRate float64
	// Momentum coefficient. Defaults to 0.9.
	Momentum float64
	// Epochs over the training set. Defaults to 20.
	Epochs int
	// BatchSize for minibatch SGD. Defaults to 64.
	BatchSize int
	// WeightDecay is L2 regularization strength. Defaults to 1e-4.
	WeightDecay float64
	// Seed drives initialization and shuffling.
	Seed uint64
}

func (o *Options) defaults() {
	if len(o.Hidden) == 0 {
		o.Hidden = []int{256, 128}
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.05
	}
	if o.Momentum < 0 || o.Momentum >= 1 {
		o.Momentum = 0.9
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.Epochs <= 0 {
		o.Epochs = 20
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.WeightDecay < 0 {
		o.WeightDecay = 1e-4
	}
}

// layer is a fully-connected layer: out = act(W·in + b).
type layer struct {
	w      *hdc.Matrix // out × in
	b      []float32
	vw     []float32 // momentum buffers
	vb     []float32
	inDim  int
	outDim int
	relu   bool // false on the output layer
}

// Network is a trained MLP classifier.
type Network struct {
	layers  []*layer
	classes int
	opts    Options
}

// Train fits an MLP on the n×f feature matrix x with labels y.
func Train(x *hdc.Matrix, y []int, classes int, opts Options) (*Network, error) {
	opts.defaults()
	if classes < 2 {
		return nil, fmt.Errorf("mlp: need at least 2 classes, got %d", classes)
	}
	if x.Rows != len(y) || x.Rows == 0 {
		return nil, fmt.Errorf("mlp: %d samples, %d labels", x.Rows, len(y))
	}
	for i, l := range y {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("mlp: label %d at sample %d out of range", l, i)
		}
	}
	r := rng.New(opts.Seed)
	n := &Network{classes: classes, opts: opts}
	sizes := append(append([]int{x.Cols}, opts.Hidden...), classes)
	for li := 0; li+1 < len(sizes); li++ {
		in, out := sizes[li], sizes[li+1]
		l := &layer{
			w: hdc.NewMatrix(out, in), b: make([]float32, out),
			vw: make([]float32, out*in), vb: make([]float32, out),
			inDim: in, outDim: out,
			relu: li+2 < len(sizes),
		}
		// He initialization for ReLU layers.
		r.FillNorm(l.w.Data, 0, math.Sqrt(2/float64(in)))
		n.layers = append(n.layers, l)
	}
	n.fit(x, y, r)
	return n, nil
}

// fit runs minibatch SGD with momentum.
func (n *Network) fit(x *hdc.Matrix, y []int, r *rng.Rand) {
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	acts := n.newActivations()
	grads := n.newGradients()
	for epoch := 0; epoch < n.opts.Epochs; epoch++ {
		r.ShuffleInts(order)
		for start := 0; start < len(order); start += n.opts.BatchSize {
			end := start + n.opts.BatchSize
			if end > len(order) {
				end = len(order)
			}
			n.zeroGradients(grads)
			for _, i := range order[start:end] {
				n.backprop(x.Row(i), y[i], acts, grads)
			}
			n.applyGradients(grads, end-start)
		}
	}
}

// activations holds per-layer pre/post activation buffers for one sample.
type activations struct {
	z     [][]float32 // pre-activation per layer
	a     [][]float32 // post-activation per layer (a[0] unused; input aliased)
	delta [][]float32 // backprop error per layer
}

func (n *Network) newActivations() *activations {
	acts := &activations{}
	for _, l := range n.layers {
		acts.z = append(acts.z, make([]float32, l.outDim))
		acts.a = append(acts.a, make([]float32, l.outDim))
		acts.delta = append(acts.delta, make([]float32, l.outDim))
	}
	return acts
}

type gradients struct {
	gw [][]float32
	gb [][]float32
}

func (n *Network) newGradients() *gradients {
	g := &gradients{}
	for _, l := range n.layers {
		g.gw = append(g.gw, make([]float32, l.outDim*l.inDim))
		g.gb = append(g.gb, make([]float32, l.outDim))
	}
	return g
}

func (n *Network) zeroGradients(g *gradients) {
	for li := range g.gw {
		hdc.Zero(g.gw[li])
		hdc.Zero(g.gb[li])
	}
}

// forward computes activations for input x; returns the output logits
// (acts.a of the last layer, pre-softmax).
func (n *Network) forward(x []float32, acts *activations) []float32 {
	in := x
	for li, l := range n.layers {
		z := acts.z[li]
		l.w.MulVec(in, z)
		for j := range z {
			z[j] += l.b[j]
		}
		a := acts.a[li]
		if l.relu {
			for j := range z {
				if z[j] > 0 {
					a[j] = z[j]
				} else {
					a[j] = 0
				}
			}
		} else {
			copy(a, z)
		}
		in = a
	}
	return in
}

// backprop accumulates gradients of the softmax cross-entropy loss for one
// sample into g.
func (n *Network) backprop(x []float32, label int, acts *activations, g *gradients) {
	logits := n.forward(x, acts)
	last := len(n.layers) - 1
	// softmax − one-hot
	probs := acts.delta[last]
	softmax(logits, probs)
	probs[label] -= 1
	// backward through layers
	for li := last; li >= 0; li-- {
		l := n.layers[li]
		delta := acts.delta[li]
		var in []float32
		if li == 0 {
			in = x
		} else {
			in = acts.a[li-1]
		}
		gw := g.gw[li]
		for j := 0; j < l.outDim; j++ {
			dj := delta[j]
			if dj == 0 {
				continue
			}
			row := gw[j*l.inDim : (j+1)*l.inDim]
			hdc.Axpy(dj, in, row)
			g.gb[li][j] += dj
		}
		if li == 0 {
			break
		}
		// propagate: delta_prev = Wᵀ·delta ⊙ relu'(z_prev)
		prev := acts.delta[li-1]
		hdc.Zero(prev)
		for j := 0; j < l.outDim; j++ {
			dj := delta[j]
			if dj == 0 {
				continue
			}
			hdc.Axpy(dj, l.w.Row(j), prev)
		}
		zPrev := acts.z[li-1]
		for j := range prev {
			if zPrev[j] <= 0 {
				prev[j] = 0
			}
		}
	}
}

// applyGradients performs one momentum SGD step with batch-mean gradients.
func (n *Network) applyGradients(g *gradients, batch int) {
	lr := float32(n.opts.LearningRate / float64(batch))
	mom := float32(n.opts.Momentum)
	wd := float32(n.opts.WeightDecay)
	for li, l := range n.layers {
		gw, gb := g.gw[li], g.gb[li]
		for i := range l.w.Data {
			l.vw[i] = mom*l.vw[i] - lr*(gw[i]+wd*float32(batch)*l.w.Data[i])
			l.w.Data[i] += l.vw[i]
		}
		for i := range l.b {
			l.vb[i] = mom*l.vb[i] - lr*gb[i]
			l.b[i] += l.vb[i]
		}
	}
}

func softmax(logits, out []float32) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		// Degenerate logits (possible under fault injection): fall back to
		// a uniform distribution rather than emitting NaNs.
		for i := range out {
			out[i] = 1 / float32(len(out))
		}
		return
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

func (n *Network) predictWith(x []float32, acts *activations) int {
	logits := n.forward(x, acts)
	best, bv := 0, float32(math.Inf(-1))
	for i, v := range logits {
		if v > bv { // NaN logits never compare greater: stays at a valid class
			best, bv = i, v
		}
	}
	return best
}

// PredictBatch classifies every row of x in parallel.
func (n *Network) PredictBatch(x *hdc.Matrix) []int {
	out := make([]int, x.Rows)
	hdc.ParallelChunks(x.Rows, func(lo, hi int) {
		acts := n.newActivations()
		for i := lo; i < hi; i++ {
			out[i] = n.predictWith(x.Row(i), acts)
		}
	})
	return out
}

// Evaluate returns accuracy on x, y.
func (n *Network) Evaluate(x *hdc.Matrix, y []int) float64 {
	return metrics.Accuracy(n.PredictBatch(x), y)
}

// Weights returns the raw float32 weight slices of every layer (weights
// then biases, layer by layer). Mutating them mutates the network — this
// is the fault-injection surface for Fig 5.
func (n *Network) Weights() [][]float32 {
	var out [][]float32
	for _, l := range n.layers {
		out = append(out, l.w.Data, l.b)
	}
	return out
}

// Clone deep-copies the network (momentum buffers excluded — clones are
// for inference/corruption experiments, not resumed training).
func (n *Network) Clone() *Network {
	c := &Network{classes: n.classes, opts: n.opts}
	for _, l := range n.layers {
		nl := &layer{
			w: l.w.Clone(), b: append([]float32(nil), l.b...),
			vw: make([]float32, len(l.vw)), vb: make([]float32, len(l.vb)),
			inDim: l.inDim, outDim: l.outDim, relu: l.relu,
		}
		c.layers = append(c.layers, nl)
	}
	return c
}
