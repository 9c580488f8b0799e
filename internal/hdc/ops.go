package hdc

// Classic HDC algebra: bundling (superposition) and binding (element-wise
// product). The CyberHD pipeline uses the
// RBF encoder rather than explicit bind/bundle record construction, but
// the record-based encoder (encoder.IDLevel) and downstream users building
// structured hypervectors need the primitive set.

// Bundle sums the given vectors into a new hypervector (majority-like
// superposition in the float domain). It panics if vectors is empty or
// lengths differ.
func Bundle(vectors ...[]float32) []float32 {
	if len(vectors) == 0 {
		panic("hdc: Bundle of nothing")
	}
	out := make([]float32, len(vectors[0]))
	for _, v := range vectors {
		if len(v) != len(out) {
			panic("hdc: Bundle length mismatch")
		}
		for i := range v {
			out[i] += v[i]
		}
	}
	return out
}

// Bind multiplies a and b element-wise into a new vector. For bipolar
// hypervectors this is the classic XOR-like binding: the result is
// quasi-orthogonal to both operands and Bind(Bind(a,b), b) recovers a.
func Bind(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic("hdc: Bind length mismatch")
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}
