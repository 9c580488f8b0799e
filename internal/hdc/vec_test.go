package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"cyberhd/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestDotCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		a, b := make([]float32, n), make([]float32, n)
		r.FillNorm(a, 0, 1)
		r.FillNorm(b, 0, 1)
		return almost(Dot(a, b), Dot(b, a), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(500)
		a := make([]float32, n)
		r.FillNorm(a, 0, 1)
		// self-similarity == 1, scale invariance, bounded
		if !almost(Cosine(a, a), 1, 1e-6) {
			return false
		}
		b := append([]float32(nil), a...)
		Scale(3.5, b)
		if !almost(Cosine(a, b), 1, 1e-6) {
			return false
		}
		c := make([]float32, n)
		r.FillNorm(c, 0, 1)
		s := Cosine(a, c)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine([]float32{0, 0}, []float32{1, 2}); got != 0 {
		t.Fatalf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestCosineOpposite(t *testing.T) {
	a := []float32{1, -2, 3}
	b := []float32{-1, 2, -3}
	if got := Cosine(a, b); !almost(got, -1, 1e-6) {
		t.Fatalf("Cosine opposite = %v, want -1", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); !almost(got, 5, 1e-9) {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v", got)
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	n := Normalize(v)
	if !almost(n, 5, 1e-6) {
		t.Fatalf("returned norm %v, want 5", n)
	}
	if !almost(Norm(v), 1, 1e-6) {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	z := []float32{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize(zero) should return 0")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		v := make([]float32, n)
		r.FillNorm(v, 0, 2)
		if Norm(v) == 0 {
			return true
		}
		Normalize(v)
		a := append([]float32(nil), v...)
		Normalize(v)
		for i := range v {
			if !almost(float64(v[i]), float64(a[i]), 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZero(t *testing.T) {
	v := []float32{1, 2, 3}
	Zero(v)
	if v[0] != 0 || v[2] != 0 {
		t.Fatal("Zero did not clear")
	}
}
