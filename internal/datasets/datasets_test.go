package datasets

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cyberhd/internal/hdc"
)

func TestNSLKDDSchema(t *testing.T) {
	d := NSLKDD(3000, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumFeatures() != 41 {
		t.Fatalf("NSL-KDD has %d features, want 41", d.NumFeatures())
	}
	if d.NumClasses() != 5 {
		t.Fatalf("NSL-KDD has %d classes, want 5", d.NumClasses())
	}
	if d.Len() != 3000 {
		t.Fatalf("Len = %d", d.Len())
	}
	counts := d.ClassCounts()
	// normal should dominate, every class present.
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("imbalance order broken: %v", counts)
	}
	for c, n := range counts {
		if n < 2 {
			t.Errorf("class %d has %d samples, want >= 2", c, n)
		}
	}
}

func TestUNSWSchema(t *testing.T) {
	d := UNSWNB15(3000, 2)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumFeatures() != 42 || d.NumClasses() != 10 {
		t.Fatalf("UNSW shape: %d features, %d classes", d.NumFeatures(), d.NumClasses())
	}
	for c, n := range d.ClassCounts() {
		if n < 2 {
			t.Errorf("class %d has %d samples", c, n)
		}
	}
}

func TestCICIDS2017Schema(t *testing.T) {
	d := CICIDS2017(600, 3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumFeatures() != 78 {
		t.Fatalf("CIC-2017 features = %d, want 78", d.NumFeatures())
	}
	if d.NumClasses() != 8 {
		t.Fatalf("CIC-2017 classes = %d, want 8", d.NumClasses())
	}
	if d.Len() < 600 { // scan/bruteforce sessions expand into many flows
		t.Fatalf("CIC-2017 flows = %d, want >= sessions", d.Len())
	}
}

func TestCICIDS2018SchemaExcludesScans(t *testing.T) {
	d := CICIDS2018(600, 4)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumClasses() != 7 {
		t.Fatalf("CIC-2018 classes = %d, want 7", d.NumClasses())
	}
	for _, name := range d.ClassNames {
		if name == "portscan" {
			t.Fatal("2018 should not contain portscan")
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := NSLKDD(500, 7)
	b := NSLKDD(500, 7)
	if !a.X.Equal(b.X) {
		t.Fatal("same-seed synthesis differs")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ")
		}
	}
	c := NSLKDD(500, 8)
	if a.X.Equal(c.X) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestByName(t *testing.T) {
	for _, name := range PaperDatasets() {
		n := 300
		d, ok := ByName(name, n, 1)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name != name {
			t.Fatalf("name %q != %q", d.Name, name)
		}
	}
	if _, ok := ByName("kdd99", 10, 1); ok {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSplitStratified(t *testing.T) {
	d := NSLKDD(4000, 9)
	train, test := d.Split(0.75, 1)
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split lost rows: %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	frac := float64(train.Len()) / float64(d.Len())
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("train fraction = %v", frac)
	}
	// Every class present in both halves.
	for c, n := range train.ClassCounts() {
		if n == 0 {
			t.Errorf("class %d missing from train", c)
		}
		if test.ClassCounts()[c] == 0 {
			t.Errorf("class %d missing from test", c)
		}
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	d := NSLKDD(100, 1)
	for _, f := range []float64{0, 1, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("frac %v did not panic", f)
				}
			}()
			d.Split(f, 1)
		}()
	}
}

func TestNormalizer(t *testing.T) {
	d := NSLKDD(2000, 11)
	train, test, _ := d.NormalizedSplit(0.8, 2)
	// Training columns should be ~zero-mean unit-variance (clamped tails
	// may shift things slightly).
	variance := make([]float64, train.X.Cols)
	train.X.ColumnVariance(variance)
	for c := 0; c < train.X.Cols; c++ {
		var sum float64
		for r := 0; r < train.X.Rows; r++ {
			sum += float64(train.X.At(r, c))
		}
		mean := sum / float64(train.X.Rows)
		if math.Abs(mean) > 0.15 {
			t.Errorf("col %d mean = %v after z-score", c, mean)
		}
		if variance[c] > 0 && (variance[c] < 0.2 || variance[c] > 5) {
			t.Errorf("col %d variance = %v after z-score", c, variance[c])
		}
	}
	for _, v := range test.X.Data {
		if v > 10 || v < -10 {
			t.Fatalf("clamp failed: %v", v)
		}
	}
}

func TestNormalizerConstantColumn(t *testing.T) {
	d := &Dataset{
		Name:         "const",
		FeatureNames: []string{"a", "b"},
		ClassNames:   []string{"x", "y"},
		X:            hdc.NewMatrix(4, 2),
		Y:            []int{0, 1, 0, 1},
	}
	for i := 0; i < 4; i++ {
		d.X.Set(i, 0, 7) // constant
		d.X.Set(i, 1, float32(i))
	}
	n := FitNormalizer(d)
	n.Apply(d)
	for i := 0; i < 4; i++ {
		if d.X.At(i, 0) != 0 {
			t.Fatalf("constant column should normalize to 0, got %v", d.X.At(i, 0))
		}
	}
}

// TestApplyVecNonFinite: ±Inf clamp to ±10 like any outlier, and NaN —
// which no comparison catches, including Inf·0 on a constant column —
// becomes 0, the training mean; finite values pass through bit for bit.
func TestApplyVecNonFinite(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	n := &Normalizer{Mean: []float32{0, 0, 0, 0, 0, 0, 0}, InvStd: []float32{1, 1, 1, 1, 0, 1, 1}}
	x := []float32{nan, inf, -inf, 3.5, inf, 10, float32(math.Copysign(0, -1))}
	want := []float32{0, 10, -10, 3.5, 0, 10, float32(math.Copysign(0, -1))}
	n.ApplyVec(x)
	for c := range x {
		if math.Float32bits(x[c]) != math.Float32bits(want[c]) {
			t.Errorf("feature %d normalizes to %v, want %v", c, x[c], want[c])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := UNSWNB15(300, 13)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumFeatures() != d.NumFeatures() {
		t.Fatalf("shape changed: %dx%d -> %dx%d", d.Len(), d.NumFeatures(), back.Len(), back.NumFeatures())
	}
	for i := range d.Y {
		if d.Y[i] != back.Y[i] {
			t.Fatalf("label %d changed", i)
		}
	}
	for i, v := range d.X.Data {
		if math.Abs(float64(v-back.X.Data[i])) > 1e-6*math.Abs(float64(v)) {
			t.Fatalf("value %d changed: %v -> %v", i, v, back.X.Data[i])
		}
	}
	for i := range d.ClassNames {
		if d.ClassNames[i] != back.ClassNames[i] {
			t.Fatal("class names changed")
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"no-comment": "a,b,label\n1,2,x\n",
		"no-label":   "# classes: x\na,b\n",
		"bad-number": "# classes: x\na,label\nfoo,x\n",
		"bad-class":  "# classes: x\na,label\n1,zzz\n",
		"short-row":  "# classes: x\na,b,label\n1,x\n",
		"non-finite": "# classes: x\na,label\nNaN,x\n",
	}
	for name, s := range cases {
		if d, err := ReadCSV(bytes.NewBufferString(s), "t"); err == nil || d != nil {
			t.Errorf("%s: error %v with dataset %v", name, err, d)
		}
	}
}

// FuzzReadCSV feeds the reader behind `cyberhd train|quantize|faults -in`
// hostile bytes: it must never panic, and any dataset it returns must be
// valid and come back equal through WriteCSV and ReadCSV. Seeds: a small
// synthesized set and its truncations.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, NSLKDD(6, 1)); err != nil {
		f.Fatal(err)
	}
	for n := seed.Len(); n > 0; n = n * 2 / 3 {
		f.Add(seed.Bytes()[:n])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadCSV(bytes.NewReader(in), "fuzz")
		if (err == nil) != (d != nil && d.Validate() == nil) {
			t.Fatalf("ReadCSV returned dataset %v with error %v", d, err)
		} else if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, d); err != nil {
			t.Fatalf("WriteCSV of a dataset ReadCSV returned: %v", err)
		}
		if back, err := ReadCSV(&out, "fuzz"); err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v\nbytes %q", err, back, d, out.Bytes())
		}
	})
}

func TestSaveLoadCSVFile(t *testing.T) {
	d := NSLKDD(100, 15)
	path := t.TempDir() + "/nsl.csv"
	if err := SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "nsl" {
		t.Fatalf("loaded name = %q", back.Name)
	}
	if back.Len() != 100 {
		t.Fatalf("loaded %d rows", back.Len())
	}
}

func TestApportion(t *testing.T) {
	counts := apportion([]float64{0.9, 0.09, 0.01}, 1000)
	if counts[0]+counts[1]+counts[2] != 1000 {
		t.Fatalf("apportion sum = %v", counts)
	}
	if counts[0] < 850 || counts[2] < 2 {
		t.Fatalf("apportion = %v", counts)
	}
	// Tiny n with many classes: floors still respected where possible.
	counts = apportion([]float64{0.97, 0.01, 0.01, 0.01}, 20)
	for i, c := range counts {
		if c < 2 {
			t.Fatalf("class %d below floor: %v", i, counts)
		}
	}
}

func TestSubset(t *testing.T) {
	d := NSLKDD(50, 17)
	s := d.Subset([]int{5, 10, 15})
	if s.Len() != 3 {
		t.Fatalf("subset len %d", s.Len())
	}
	for j := 0; j < d.NumFeatures(); j++ {
		if s.X.At(1, j) != d.X.At(10, j) {
			t.Fatal("subset row mismatch")
		}
	}
	if s.Y[2] != d.Y[15] {
		t.Fatal("subset label mismatch")
	}
	// Mutating the subset must not touch the parent.
	s.X.Set(0, 0, 12345)
	if d.X.At(5, 0) == 12345 {
		t.Fatal("subset aliases parent")
	}
}
