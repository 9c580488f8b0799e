package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
	// Split must not advance the parent stream.
	p1 := New(7)
	_ = p1.Split()
	_ = p1.Split()
	p2 := New(7)
	for i := 0; i < 100; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatalf("Split perturbed parent stream at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 100000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, iters = 10, 100000
	counts := make([]int, n)
	for i := 0; i < iters; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(iters) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(100)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCategorical(t *testing.T) {
	r := New(11)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"empty":    {},
		"zero-sum": {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestFillNorm(t *testing.T) {
	r := New(13)
	buf := make([]float32, 100000)
	r.FillNorm(buf, 2, 3)
	var sum float64
	for _, v := range buf {
		sum += float64(v)
	}
	if mean := sum / float64(len(buf)); math.Abs(mean-2) > 0.05 {
		t.Errorf("FillNorm mean = %v, want ~2", mean)
	}
}

func TestFillUniform(t *testing.T) {
	r := New(14)
	buf := make([]float32, 100000)
	r.FillUniform(buf, -1, 1)
	var sum float64
	for _, v := range buf {
		if v < -1 || v >= 1 {
			t.Fatalf("value out of range: %v", v)
		}
		sum += float64(v)
	}
	if mean := sum / float64(len(buf)); math.Abs(mean) > 0.02 {
		t.Errorf("FillUniform mean = %v, want ~0", mean)
	}
}

func TestMul128(t *testing.T) {
	hi, lo := mul128(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Fatalf("mul128 max: got (%d, %d)", hi, lo)
	}
	hi, lo = mul128(0, 12345)
	if hi != 0 || lo != 0 {
		t.Fatalf("mul128 zero: got (%d, %d)", hi, lo)
	}
}
