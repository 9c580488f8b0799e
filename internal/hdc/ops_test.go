package hdc

import (
	"testing"
	"testing/quick"

	"cyberhd/internal/rng"
)

func randBipolar(r *rng.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if r.Uint64()&1 == 1 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	return v
}

func TestBundle(t *testing.T) {
	out := Bundle([]float32{1, 2}, []float32{3, 4}, []float32{5, 6})
	if out[0] != 9 || out[1] != 12 {
		t.Fatalf("Bundle = %v", out)
	}
}

func TestBundlePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { Bundle() },
		"mismatch": func() { Bundle([]float32{1}, []float32{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBundleSimilarToMembers(t *testing.T) {
	// A bundle stays more similar to its members than to random vectors —
	// the superposition property HDC memory relies on.
	r := rng.New(1)
	const n = 4096
	members := make([][]float32, 5)
	for i := range members {
		members[i] = randBipolar(r, n)
	}
	b := Bundle(members...)
	outsider := randBipolar(r, n)
	for i, m := range members {
		if Cosine(b, m) <= Cosine(b, outsider)+0.1 {
			t.Errorf("member %d similarity %.3f not above outsider %.3f",
				i, Cosine(b, m), Cosine(b, outsider))
		}
	}
}

func TestBindProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 64 + r.Intn(512)
		a := randBipolar(r, n)
		b := randBipolar(r, n)
		bound := Bind(a, b)
		// self-inverse: bind(bind(a,b), b) == a for bipolar vectors
		back := Bind(bound, b)
		for i := range a {
			if back[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBindQuasiOrthogonal(t *testing.T) {
	r := rng.New(3)
	const n = 8192
	a := randBipolar(r, n)
	b := randBipolar(r, n)
	bound := Bind(a, b)
	if s := Cosine(bound, a); s > 0.05 || s < -0.05 {
		t.Errorf("bound vector not quasi-orthogonal to operand: %v", s)
	}
}
