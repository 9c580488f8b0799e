package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// snapCOW trains a small model, wraps it in COW and hot-reloads a second
// one, so the saved state carries a non-initial version — the state a
// live deployment would snapshot.
func snapCOW(t *testing.T) (*COWModel, []float32) {
	t.Helper()
	m, _, _ := toyModel(t, 3, 64, 9)
	c := NewCOWModel(m)
	next, _, _ := toyModel(t, 3, 64, 10)
	if err := c.ReplaceModel(next); err != nil {
		t.Fatal(err)
	}
	x, _ := blobs(40, 8, 3, 0.3, 300, 7)
	probe := make([]float32, 8)
	copy(probe, x.Row(3))
	return c, probe
}

func TestSnapshotV2RoundTrip(t *testing.T) {
	c, _ := snapCOW(t)
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, info, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != SnapshotFormatV2 {
		t.Fatalf("format %d, want v2", info.Format)
	}
	if info.ModelVersion != c.Version() {
		t.Fatalf("info version %d, saved %d", info.ModelVersion, c.Version())
	}
	if back.Version() != c.Version() {
		t.Fatalf("restored version %d, saved %d — hot-reload version history would reset", back.Version(), c.Version())
	}
	if info.Classes != c.NumClasses() || info.Dim != c.Dim() {
		t.Fatalf("info geometry %dx%d, want %dx%d", info.Classes, info.Dim, c.NumClasses(), c.Dim())
	}
	if info.DerivedWidth != 0 {
		t.Fatalf("float serving recorded width %d", info.DerivedWidth)
	}
	// Bit-identical serving: identical class matrix, identical norms,
	// identical verdicts on a probe sweep.
	if !back.Snapshot().Class.Equal(c.Snapshot().Class) {
		t.Fatal("class matrix changed across snapshot round trip")
	}
	a, b := c.Snapshot().model.Scorer().norms, back.Snapshot().model.Scorer().norms
	if len(a) != len(b) {
		t.Fatalf("norms length %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("norm %d: %v != %v (not bit-identical)", i, b[i], a[i])
		}
	}
	x, _ := blobs(200, 8, 3, 0.3, 300, 11)
	for i := 0; i < x.Rows; i++ {
		if got, want := back.Predict(x.Row(i)), c.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: restored model predicts %d, original %d", i, got, want)
		}
	}
}

func TestSnapshotV1Fallback(t *testing.T) {
	// A v1 file from before the snapshot format must keep loading:
	// LoadSnapshot sniffs the missing magic and rebuilds the derived state
	// (norms via Scorer().Refresh(), version restarted at 1). The frozen fixture
	// is the v1 form of exactly the model toyModel(t, 3, 64, 9) trains.
	m, _, _ := toyModel(t, 3, 64, 9)
	back, info, err := LoadSnapshotFile("testdata/model_v1.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != SnapshotFormatV1 {
		t.Fatalf("format %d, want v1", info.Format)
	}
	if back.Version() != 1 {
		t.Fatalf("v1 load version %d, want 1", back.Version())
	}
	if !back.Snapshot().Class.Equal(m.Class) {
		t.Fatal("v1-loaded class matrix differs from the model the fixture was written from")
	}
	x, _ := blobs(200, 8, 3, 0.3, 300, 12)
	for i := 0; i < x.Rows; i++ {
		if got, want := back.Predict(x.Row(i)), m.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: v1-loaded model predicts %d, original %d", i, got, want)
		}
	}
}

// TestSaveSnapshotBytesPinned pins the v2 writer's output for the fixture
// model: a change to SaveSnapshot, snapshotState or any type it reaches
// that moves a byte of the one model format written shows up here, not in
// a deployment that can no longer read its files. gob numbers the types
// it describes in the order a process first uses them, so the bytes are
// taken in a child process that has touched nothing else.
func TestSaveSnapshotBytesPinned(t *testing.T) {
	const want = "79c7e256becba1f1fe0b75ccc015ec0e481210335320a4f4067b254cf0f4468a"
	if os.Getenv("CYBERHD_SNAPSHOT_PIN_CHILD") == "1" {
		m, _, _ := toyModel(t, 3, 64, 9)
		h := sha256.New()
		if err := SaveSnapshot(h, NewCOWModel(m)); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("snapshot-sha256 %x\n", h.Sum(nil))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSaveSnapshotBytesPinned$")
	cmd.Env = append(os.Environ(), "CYBERHD_SNAPSHOT_PIN_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "snapshot-sha256 "+want+"\n") {
		t.Fatalf("SaveSnapshot bytes moved; want sha256 %s, child printed:\n%s", want, out)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	c, probe := snapCOW(t)
	path := t.TempDir() + "/model.snapshot"
	if err := SaveSnapshotFile(path, c); err != nil {
		t.Fatal(err)
	}
	back, info, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != SnapshotFormatV2 || back.Predict(probe) != c.Predict(probe) {
		t.Fatalf("file round trip diverged (format %d)", info.Format)
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	c, _ := snapCOW(t)
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"magic only":       good[:8],
		"truncated header": good[:10],
		"truncated body":   good[:len(good)/2],
		"garbage":          []byte("definitely not a model snapshot at all"),
	}
	// Flip one byte inside the gob body.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	cases["bit flip"] = flipped
	// A History entry must drop in [0, D): the last one's count is how many
	// columns a 1-bit model masks (ImmatureDims).
	for _, drop := range []int{-1, 64, 1 << 20} {
		m, _, _ := toyModel(t, 3, 64, 9)
		m.History[len(m.History)-1].Dropped = drop
		var b bytes.Buffer
		if err := SaveSnapshot(&b, NewCOWModel(m)); err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("dropped %d", drop)] = b.Bytes()
	}
	for name, data := range cases {
		if _, _, err := LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadSnapshotCapsDeclaredSizes(t *testing.T) {
	// A hostile header declaring a huge geometry must be rejected from
	// the fixed-size header alone — before any body-sized allocation.
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	binary.Write(&buf, binary.BigEndian, snapshotHeader{Rows: 1 << 30, Cols: 1 << 30})
	buf.WriteString("payload never reached")
	if _, _, err := LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized header accepted")
	}
	var zero bytes.Buffer
	zero.Write(snapshotMagic[:])
	binary.Write(&zero, binary.BigEndian, snapshotHeader{Rows: 0, Cols: 64})
	if _, _, err := LoadSnapshot(bytes.NewReader(zero.Bytes())); err == nil {
		t.Fatal("zero-class header accepted")
	}
}

func TestSaveSnapshotNilAndShortReaders(t *testing.T) {
	if err := SaveSnapshot(io.Discard, nil); err == nil {
		t.Fatal("nil COWModel accepted")
	}
	if _, _, err := LoadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader accepted")
	}
}

// goldenV1Predictions are the fixture model's verdicts on the golden
// probe set, recorded when the fixture was written.
var goldenV1Predictions = []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0}

// TestLoadSnapshotV1Golden pins backward compatibility to a checked-in
// fixture: a v1 file written by the pre-snapshot persistence code, frozen
// now that nothing writes v1. If this test breaks, a persistence change
// has orphaned every deployed v1 model file.
func TestLoadSnapshotV1Golden(t *testing.T) {
	back, info, err := LoadSnapshotFile("testdata/model_v1.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != SnapshotFormatV1 {
		t.Fatalf("fixture decoded as format %d, want v1", info.Format)
	}
	if back.NumClasses() != 3 || back.Dim() != 64 {
		t.Fatalf("fixture geometry %dx%d, want 3x64", back.NumClasses(), back.Dim())
	}
	// The verdicts for the deterministic probe set are hardcoded so decode
	// changes can't hide behind a conveniently regenerated expectation.
	x, _ := blobs(16, 8, 3, 0.3, 300, 21)
	want := goldenV1Predictions
	for i := 0; i < x.Rows; i++ {
		if got := back.Predict(x.Row(i)); got != want[i] {
			t.Fatalf("probe %d: predicted %d, golden %d", i, got, want[i])
		}
	}
}
