package quantize

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

func trainedModel(t testing.TB) (*core.Model, *hdc.Matrix, []int, *hdc.Matrix, []int) {
	t.Helper()
	mr := rng.New(500)
	means := hdc.NewMatrix(4, 12)
	mr.FillNorm(means.Data, 0, 1)
	gen := func(n int, seed uint64) (*hdc.Matrix, []int) {
		r := rng.New(seed)
		x := hdc.NewMatrix(n, 12)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := i % 4
			y[i] = c
			for j := 0; j < 12; j++ {
				x.Row(i)[j] = means.At(c, j) + float32(0.3*r.Norm())
			}
		}
		return x, y
	}
	x, y := gen(1500, 1)
	xt, yt := gen(500, 2)
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, y,
		core.Options{Classes: 4, Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y, xt, yt
}

func TestFromCoreInvalidWidth(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	if _, err := FromCore(m, bitpack.Width(3)); err == nil {
		t.Fatal("accepted invalid width")
	}
}

func TestQuantizedAccuracyTracksFloat(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	floatAcc := m.Evaluate(xt, yt)
	if floatAcc < 0.9 {
		t.Fatalf("float model too weak to test quantization: %v", floatAcc)
	}
	for _, w := range bitpack.Widths {
		q, err := FromCore(m, w)
		if err != nil {
			t.Fatal(err)
		}
		acc := q.Evaluate(xt, yt)
		// Wide quantization should be nearly lossless; even 1-bit should
		// retain most of the accuracy on a well-separated problem.
		minAcc := floatAcc - 0.02
		if w <= bitpack.W2 {
			minAcc = floatAcc - 0.15
		}
		if acc < minAcc {
			t.Errorf("w=%d: quantized acc %v too far below float %v", w, acc, floatAcc)
		}
	}
}

func TestQuantizedShapeAndMemory(t *testing.T) {
	m, _, _, _, _ := trainedModel(t)
	q, err := FromCore(m, bitpack.W8)
	if err != nil {
		t.Fatal(err)
	}
	if rows, dim := len(q.Class.Rows), q.Class.Rows[0].Dim; dim != 512 || rows != 4 {
		t.Fatalf("shape %dx%d", rows, dim)
	}
	if want := 4 * 512 * 8; q.MemoryBits() != want {
		t.Fatalf("MemoryBits = %d, want %d", q.MemoryBits(), want)
	}
	q1, _ := FromCore(m, bitpack.W1)
	if q1.MemoryBits() != 4*512 {
		t.Fatalf("1-bit MemoryBits = %d", q1.MemoryBits())
	}
}

func TestPredictMatchesPredictEncoded(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W4)
	h := make([]float32, m.Enc.Dim())
	for _, i := range []int{0, 10, 100} {
		m.Enc.Encode(x.Row(i), h)
		if q.Predict(x.Row(i)) != q.PredictEncoded(h) {
			t.Fatalf("Predict != PredictEncoded at row %d", i)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	m, _, _, xt, yt := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	c := q.Clone()
	accBefore := q.Evaluate(xt, yt)
	// Corrupt the clone heavily; original must be unchanged.
	for i := 0; i < c.Class.StorageBits(); i += 2 {
		c.Class.FlipBit(i)
	}
	if acc := q.Evaluate(xt, yt); acc != accBefore {
		t.Fatalf("corrupting clone changed original: %v -> %v", accBefore, acc)
	}
}

func TestEvaluateLabelMismatchPanics(t *testing.T) {
	m, x, _, _, _ := trainedModel(t)
	q, _ := FromCore(m, bitpack.W8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Evaluate(x, []int{0})
}

// TestW1MaskIsExact pins FromCore's W1 mask on a regenerated model: every
// ImmatureDims column is +1 in every class row, and every verdict is the
// argmax of the ±1 dot with those columns deleted. At W2–W32, and at W1
// for a model that never regenerated, the packed words are exactly
// bitpack.QuantizeMatrix's.
func TestW1MaskIsExact(t *testing.T) {
	static, x, y, _, _ := trainedModel(t)
	// Every fifth label is wrong, so training keeps mispredicting and the
	// regenerated columns end noisy rather than still zero.
	noisy := slices.Clone(y)
	for i := 0; i < len(noisy); i += 5 {
		noisy[i] = (noisy[i] + 1) % 4
	}
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, noisy,
		core.Options{Classes: 4, Epochs: 4, RegenCycles: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dims := m.ImmatureDims()
	if len(dims) == 0 || len(dims) != m.History[len(m.History)-1].Dropped || static.ImmatureDims() != nil {
		t.Fatalf("ImmatureDims: %d regenerated, %d static", len(dims), len(static.ImmatureDims()))
	}
	q, _ := FromCore(m, bitpack.W1)
	masked := make([]bool, m.Dim())
	for _, j := range dims {
		masked[j] = true
		for r, row := range q.Class.Rows {
			if row.Get(j) != 1 {
				t.Fatalf("masked dim %d of class %d is %d", j, r, row.Get(j))
			}
		}
	}
	plain := bitpack.QuantizeMatrix(m.Class.Data, m.Class.Rows, m.Class.Cols, bitpack.W1)
	r, h, moved := rng.New(7), make([]float32, m.Dim()), 0
	for i := 0; i < 500; i++ {
		r.FillNorm(h, 0, 1)
		qv := bitpack.Quantize(h, bitpack.W1)
		want, best := 0, int64(-1<<62)
		for c, row := range plain.Rows {
			var dot int64
			for j := range h {
				if !masked[j] {
					dot += qv.Get(j) * row.Get(j)
				}
			}
			if dot > best {
				want, best = c, dot
			}
		}
		if got := q.PredictEncoded(h); got != want {
			t.Fatalf("query %d: served %d, masked reference %d", i, got, want)
		}
		if plain.Classify(qv) != want {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the mask moved no verdict; the reference check is vacuous")
	}
	for _, w := range bitpack.Widths {
		for name, src := range map[string]*core.Model{"regenerated": m, "static": static} {
			if w == bitpack.W1 && src == m {
				continue
			}
			q, _ := FromCore(src, w)
			ref := bitpack.QuantizeMatrix(src.Class.Data, src.Class.Rows, src.Class.Cols, w)
			for r := range ref.Rows {
				if !slices.Equal(q.Class.Rows[r].Words, ref.Rows[r].Words) || q.Class.Rows[r].Scale != ref.Rows[r].Scale {
					t.Fatalf("%s w=%d class %d: packed words differ from QuantizeMatrix", name, w, r)
				}
			}
		}
	}
}

// regenerated trains trainedModel's data with noisy labels and three
// regeneration cycles, so its W1 memory has masked columns.
func regenerated(t testing.TB) (*core.Model, *hdc.Matrix) {
	t.Helper()
	_, x, y, _, _ := trainedModel(t)
	noisy := slices.Clone(y)
	for i := 0; i < len(noisy); i += 5 {
		noisy[i] = (noisy[i] + 1) % 4
	}
	m, err := core.Train(encoder.NewRBF(12, 512, 0, 3), x, noisy,
		core.Options{Classes: 4, Epochs: 4, RegenCycles: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, x
}

// checkW1Verdicts requires every W1 verdict on the 500 rows of x, through
// Predict, PredictBatchInto (batches of 1, 64 and 300, so the parallel
// path runs too) and PredictEncoded, to equal the stateless full-D
// reference Class.Classify(bitpack.Quantize(h, W1)), and returns them.
func checkW1Verdicts(t *testing.T, name string, q *Model, x *hdc.Matrix) []int {
	t.Helper()
	want := make([]int, x.Rows)
	h := make([]float32, q.Enc.Dim())
	for i := range want {
		q.Enc.Encode(x.Row(i), h)
		want[i] = q.Class.Classify(bitpack.Quantize(h, bitpack.W1))
		if got := q.Predict(x.Row(i)); got != want[i] {
			t.Fatalf("%s query %d: Predict %d, reference %d", name, i, got, want[i])
		}
		if got := q.PredictEncoded(h); got != want[i] {
			t.Fatalf("%s query %d: PredictEncoded %d, reference %d", name, i, got, want[i])
		}
	}
	for _, batch := range []int{1, 64, 300} {
		out := make([]int, batch)
		for lo := 0; lo < x.Rows; lo += batch {
			n := min(batch, x.Rows-lo)
			q.PredictBatchInto(&hdc.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[lo*x.Cols : (lo+n)*x.Cols]}, out[:n])
			for i, got := range out[:n] {
				if got != want[lo+i] {
					t.Fatalf("%s batch %d query %d: PredictBatchInto %d, reference %d", name, batch, lo+i, got, want[lo+i])
				}
			}
		}
	}
	return want
}

// TestW1LiveViewFollowsFaults flips every masked column of one class on
// a model that has already predicted, so those columns are live again,
// and requires Refresh to bring the served verdicts back to the full-D
// reference and to rebuild the view (checkView) before and after.
func TestW1LiveViewFollowsFaults(t *testing.T) {
	m, _ := regenerated(t)
	q, _ := FromCore(m, bitpack.W1)
	x := hdc.NewMatrix(500, 12)
	rng.New(31).FillNorm(x.Data, 0, 1.5)
	before := checkW1Verdicts(t, "masked", q, x)
	checkView(t, q)
	if live := len(q.view().live); live > m.Dim()-len(m.ImmatureDims()) {
		t.Fatalf("%d live columns, but %d of %d are masked", live, len(m.ImmatureDims()), m.Dim())
	}
	for _, j := range m.ImmatureDims() {
		q.Class.Rows[2].FlipBit(j)
	}
	q.Refresh()
	after := checkW1Verdicts(t, "flipped", q, x)
	if slices.Equal(before, after) {
		t.Fatal("the flips moved no verdict; the check is vacuous")
	}
	checkView(t, q)
}

// checkView pins q's W1 view to Class, element by element: the live
// columns are those where the class rows differ, ranked by differing
// class pairs, most first, ties by column; the view's class words gather
// each row's bits at them in that order, and its D-bit words are the
// rows; rem[w][a][b] counts the live columns past word w where rows a and
// b differ; and the settle check starts at the first word after which
// some query could settle.
func checkView(t *testing.T, q *Model) {
	t.Helper()
	v, nc := q.view(), len(q.Class.Rows)
	if len(v.live) != q.Class.Rows[0].Dim-naturallyCommon(q.Class) {
		t.Fatalf("live columns %d, want %d", len(v.live), q.Class.Rows[0].Dim-naturallyCommon(q.Class))
	}
	pairs := func(j int) int {
		ones := 0
		for _, row := range q.Class.Rows {
			ones += int(row.Get(j)+1) / 2
		}
		return ones * (nc - ones)
	}
	for k, j := range v.live {
		if pairs(j) == 0 || k > 0 && (pairs(j) > pairs(v.live[k-1]) || pairs(j) == pairs(v.live[k-1]) && j < v.live[k-1]) {
			t.Fatalf("live column %d (rank %d) separates %d pairs, after column %d's %d", j, k, pairs(j), v.live[max(k-1, 0)], pairs(v.live[max(k-1, 0)]))
		}
	}
	words := (len(v.live) + 63) / 64
	for c, row := range q.Class.Rows {
		for k, j := range v.live {
			if bit := int64(v.class[k/64*nc+c]>>(k%64)&1)*2 - 1; bit != row.Get(j) {
				t.Fatalf("class %d: gathered bit %d is %d, column %d holds %d", c, k, bit, j, row.Get(j))
			}
		}
		for w, word := range row.Words {
			if v.rows[w*nc+c] != word {
				t.Fatalf("class %d: D-bit word %d is %#x, the row holds %#x", c, w, v.rows[w*nc+c], word)
			}
		}
	}
	for w := range words {
		for a := range nc {
			for b := range nc {
				want := int32(0)
				for _, j := range v.live[min(64*(w+1), len(v.live)):] {
					if q.Class.Rows[a].Get(j) != q.Class.Rows[b].Get(j) {
						want++
					}
				}
				if got := v.rem[(w*nc+a)*nc+b]; got != want {
					t.Fatalf("rem[%d][%d][%d] = %d, want %d", w, a, b, got, want)
				}
			}
		}
		// A query can settle after word w only if some class a could lead
		// every other class b by rem[w][a][b]: its words so far must hold
		// that many columns where rows a and b differ.
		can := false
		for a := range nc {
			all := true
			for b := range nc {
				var n int32
				for _, j := range v.live {
					if q.Class.Rows[a].Get(j) != q.Class.Rows[b].Get(j) {
						n++
					}
				}
				all = all && n-v.rem[(w*nc+a)*nc+b] >= v.rem[(w*nc+a)*nc+b]
			}
			can = can || all
		}
		if (w >= v.first) != can {
			t.Fatalf("after word %d of %d: checks from word %d, settling possible %v", w, words, v.first, can)
		}
	}
}

// naturallyCommon counts the columns where every class row holds the same
// element, element by element.
func naturallyCommon(class *bitpack.Matrix) int {
	common := 0
	for j := range class.Rows[0].Dim {
		same := true
		for _, row := range class.Rows {
			same = same && row.Get(j) == class.Rows[0].Get(j)
		}
		if same {
			common++
		}
	}
	return common
}

// TestW1LiveViewEdges covers a model with no regeneration, which drops
// only its naturally common columns, and one whose class rows are all
// equal, where no column is live and every verdict is class 0.
func TestW1LiveViewEdges(t *testing.T) {
	static, _, _, xt, _ := trainedModel(t)
	q, _ := FromCore(static, bitpack.W1)
	checkW1Verdicts(t, "static", q, xt)
	checkView(t, q)
	if live := len(q.view().live); live == static.Dim() {
		t.Fatalf("static model: %d live columns, %d naturally common", live, naturallyCommon(q.Class))
	}
	same := q.Clone()
	for _, row := range same.Class.Rows[1:] {
		copy(row.Words, same.Class.Rows[0].Words)
	}
	for i, got := range checkW1Verdicts(t, "equal rows", same, xt) {
		if got != 0 || len(same.view().live) != 0 {
			t.Fatalf("equal rows, query %d: verdict %d over %d live columns", i, got, len(same.view().live))
		}
	}
}

// TestW1EarlyExitIsExact holds the early-exit W1 verdicts of Predict and
// PredictBatchInto to the stateless full-D reference (checkW1Verdicts)
// for class counts on both sides of bitpack's 64 stack-scored classes and
// live-column counts at every word edge, with a duplicate class row, a
// NaN and an infinite query (scored from their float encodings); then on
// two-class memories built around one query: its verdict a tie whose
// leader is settled exactly at a word boundary, a first word whose
// outputs are all NaN, and outputs that are all NaN.
func TestW1EarlyExitIsExact(t *testing.T) {
	x := hdc.NewMatrix(500, 12)
	r := rng.New(41)
	for i := range x.Rows {
		r.FillNorm(x.Row(i), 0, 0.25*float64(1+i%8))
	}
	x.Row(7)[3], x.Row(300)[0] = float32(math.NaN()), float32(math.Inf(1))
	for _, nc := range []int{1, 2, 8, 65} {
		for _, k := range []int{0, 1, 63, 64, 65, 409} {
			if nc == 1 && k > 0 {
				continue
			}
			q := randomW1(nc, k, uint64(100*nc+k))
			if live := len(q.view().live); live != k {
				t.Fatalf("C=%d: %d live columns, want %d", nc, live, k)
			}
			checkW1Verdicts(t, fmt.Sprintf("C=%d K=%d", nc, k), q, x)
		}
	}
	enc, one := encoder.NewRBF(12, 512, 0, 5), &hdc.Matrix{Rows: 1, Cols: 12, Data: x.Row(1)}
	h := make([]float32, 512)
	enc.Encode(one.Data, h)
	qb := bitpack.Quantize(h, bitpack.W1)
	for _, tc := range []struct{ k, w int }{{128, 0}, {130, 1}, {408, 3}} {
		m, rest := 64*(tc.w+1), tc.k-64*(tc.w+1)
		for leader := range 2 {
			// Class leader takes (m+rest)/2 of the first m live columns and
			// the other class the rest, so after word w the leader is ahead
			// by exactly rest, and the last rest columns all go the other
			// way: a tie, which class 0 wins.
			agree := make([]bool, tc.k)
			for j := range agree {
				agree[j] = (j < (m+rest)/2) == (leader == 0) && j < m || j >= m && leader == 1
			}
			name := fmt.Sprintf("tie K=%d settled after word %d, class %d leading", tc.k, tc.w, leader)
			if got := checkW1Verdicts(t, name, splitW1(enc, qb, agree), one); got[0] != 0 {
				t.Fatalf("%s: verdict %d, a tie goes to class 0", name, got[0])
			}
		}
	}
	// The first 64 live columns encode through +Inf weights, so the
	// query's first word is all NaN (bits 0, no nonzero output). Class 0
	// disagrees with all of them and the query's verdict is class 1 only
	// because that word counts.
	st := encoder.CaptureState(enc)
	for j := range 64 {
		st.Base[j*12] = float32(math.Inf(1))
	}
	nanFirst, _ := encoder.FromState(st)
	nanFirst.Encode(one.Data, h)
	qb = bitpack.Quantize(h, bitpack.W1)
	agree := make([]bool, 128)
	for j := range agree {
		agree[j] = j >= 64 && j < 104
	}
	if got := checkW1Verdicts(t, "NaN first word", splitW1(nanFirst, qb, agree), one); got[0] != 1 {
		t.Fatalf("NaN first word: verdict %d, want 1", got[0])
	}
	// A query whose every output is NaN has no nonzero one: bitpack packs
	// its eight outputs all +1, where class 0 agrees on six of them, but
	// its sign bits are all 0, which class 1 is nearer.
	small, nan := encoder.NewRBF(12, 8, 0, 5), &hdc.Matrix{Rows: 1, Cols: 12, Data: x.Row(7)}
	small.Encode(nan.Data, h[:8])
	six := []bool{true, true, true, true, true, true, false, false}
	if got := checkW1Verdicts(t, "all NaN", splitW1(small, bitpack.Quantize(h[:8], bitpack.W1), six), nan); got[0] != 0 {
		t.Fatalf("all NaN: verdict %d, want 0", got[0])
	}
}

// randomW1 returns a W1 model over a 12→512 RBF encoder whose nc class
// rows differ in exactly k random columns, drawn from seed: rows 0 and 1
// are complements there and the others random, and from three classes up
// the last row duplicates row 1.
func randomW1(nc, k int, seed uint64) *Model {
	r := rng.New(seed)
	class := &bitpack.Matrix{Rows: make([]*bitpack.Vector, nc)}
	for c := range class.Rows {
		class.Rows[c] = bitpack.NewVector(512, bitpack.W1)
	}
	live := make([]bool, 512)
	for _, j := range r.Perm(512)[:k] {
		live[j] = true
	}
	for j := range 512 {
		common := int64(r.Intn(2)) - 1
		for c, row := range class.Rows {
			switch {
			case !live[j]:
				row.Set(j, common)
			case c == 1:
				row.Set(j, -class.Rows[0].Get(j))
			case c == nc-1 && nc >= 3:
				row.Set(j, class.Rows[1].Get(j))
			default:
				row.Set(j, int64(r.Intn(2))-1)
			}
		}
	}
	return &Model{Width: bitpack.W1, Class: class, Enc: encoder.NewRBF(12, 512, 0, seed)}
}

// splitW1 returns a two-class W1 model over enc whose live columns are
// 0…len(agree)−1, each separating the one class pair, so ranked in column
// order: class 0 holds the query bits qb where agree holds and their
// negation elsewhere, class 1 the complement, and every other column is
// +1 in both.
func splitW1(enc *encoder.RBF, qb *bitpack.Vector, agree []bool) *Model {
	rows := []*bitpack.Vector{bitpack.NewVector(enc.Dim(), bitpack.W1), bitpack.NewVector(enc.Dim(), bitpack.W1)}
	for j := range enc.Dim() {
		b := int64(1)
		if j < len(agree) {
			if b = qb.Get(j); !agree[j] {
				b = -b
			}
		}
		rows[0].Set(j, b)
		rows[1].Set(j, -b)
		if j >= len(agree) {
			rows[1].Set(j, 1)
		}
	}
	return &Model{Width: bitpack.W1, Class: &bitpack.Matrix{Rows: rows}, Enc: enc}
}

// FuzzW1EarlyExit holds W1 serving to the stateless full-D reference
// (checkW1Verdicts) on class memories and queries read from the fuzz
// input: up to 70 classes, up to 300 dimensions, which of them are live
// (the bytes' bits, cycled), and queries from the bytes as float32 bit
// patterns — ±0, subnormals, NaN, ±Inf, huge — then seeded normal rows at
// growing scale, 1 to 80 of them.
func FuzzW1EarlyExit(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0, 0, 128, 63, 0, 0, 192, 127, 0, 0, 0, 128}, uint8(2), uint16(130), uint64(1))
	f.Add([]byte{0x55, 0xaa, 0xff, 0xff, 0xff, 0x7f}, uint8(64), uint16(299), uint64(2))
	f.Add([]byte{1}, uint8(7), uint16(64), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, nc8 uint8, dim16 uint16, seed uint64) {
		nc, dim := 1+int(nc8%70), 1+int(dim16%300)
		if len(raw) == 0 {
			return
		}
		r := rng.New(seed)
		class := &bitpack.Matrix{Rows: make([]*bitpack.Vector, nc)}
		for c := range class.Rows {
			class.Rows[c] = bitpack.NewVector(dim, bitpack.W1)
		}
		for j := range dim {
			common, live := int64(r.Intn(2))-1, raw[j/8%len(raw)]>>(j%8)&1 == 1
			for _, row := range class.Rows {
				if !live {
					row.Set(j, common)
				} else {
					row.Set(j, int64(r.Intn(2))-1)
				}
			}
		}
		q := &Model{Width: bitpack.W1, Class: class, Enc: encoder.NewRBF(4, dim, 0, seed)}
		x := hdc.NewMatrix(1+int(seed%80), 4)
		for i := range x.Data {
			if i < len(raw)/4 {
				x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				x.Data[i] = float32(r.Norm() * float64(1+i/16))
			}
		}
		checkW1Verdicts(t, fmt.Sprintf("C=%d D=%d", nc, dim), q, x)
	})
}

// BenchmarkPredictBatchW1 is W1 PredictBatchInto in batches of 64 on a
// model of the served shape (78 features, six classes, D = 512, seven
// regeneration cycles) over held-out in-cluster rows, whose verdicts
// mostly settle in the first words, and over off-cluster N(0, 1) rows,
// whose small margins keep more words in play: ns/query.
func BenchmarkPredictBatchW1(b *testing.B) {
	const in, classes = 78, 6
	r := rng.New(77)
	means := hdc.NewMatrix(classes, in)
	r.FillNorm(means.Data, 0, 1)
	x, serve, off := hdc.NewMatrix(3000, in), hdc.NewMatrix(1000, in), hdc.NewMatrix(1000, in)
	y := make([]int, x.Rows)
	for i := range x.Rows + serve.Rows {
		row := serve.Row(i % serve.Rows)
		if i < x.Rows {
			row, y[i] = x.Row(i), i%classes
		}
		for j := range row {
			row[j] = means.At(i%classes, j) + float32(0.5*r.Norm())
		}
	}
	r.FillNorm(off.Data, 0, 1)
	m, err := core.Train(encoder.NewRBF(in, 512, 0, 3), x, y,
		core.Options{Classes: classes, Epochs: 8, RegenCycles: 7, RegenRate: 0.2, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	q, _ := FromCore(m, bitpack.W1)
	out := make([]int, 64)
	for _, set := range []struct {
		name string
		x    *hdc.Matrix
	}{{"serve", serve}, {"offcluster", off}} {
		b.Run(set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i * 64 % (set.x.Rows - 63)
				q.PredictBatchInto(&hdc.Matrix{Rows: 64, Cols: in, Data: set.x.Data[lo*in : (lo+64)*in]}, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/query")
		})
	}
}
