package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"testing"

	"cyberhd/internal/encoder"
)

// FuzzLoadSnapshot pins the control plane's decode discipline: arbitrary
// bytes — truncations, bit flips, version-skewed headers, hostile size
// declarations — must come back as an error, never a panic and never an
// allocation driven by an unvalidated declared size. LoadSnapshot sits
// behind an HTTP upload endpoint, so this is the crash surface of the
// whole serving process.
func FuzzLoadSnapshot(f *testing.F) {
	x, y := blobs(60, 4, 2, 0.3, 50, 1)
	m, err := Train(encoder.NewRBF(4, 16, 0, 3), x, y, Options{Classes: 2, Epochs: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: a valid v2 snapshot, a valid v1 file, their
	// truncations, a corrupted middle and hostile headers.
	var v2 bytes.Buffer
	if err := SaveSnapshot(&v2, NewCOWModel(m)); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/model_v1.snapshot")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1)
	f.Add(v2.Bytes()[:8])
	f.Add(v2.Bytes()[:12])
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	f.Add(v1[:len(v1)/3])
	flip := append([]byte(nil), v2.Bytes()...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	var hostile bytes.Buffer
	hostile.Write(snapshotMagic[:])
	binary.Write(&hostile, binary.BigEndian, snapshotHeader{Rows: ^uint32(0), Cols: ^uint32(0)})
	f.Add(hostile.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CYHDSNP2"))
	// A v1 body whose shapes are all zero-width: every length matches its
	// product, and before the positive-shape checks it decoded into a
	// model that predicts class 0 forever (control's
	// TestZeroDimensionModelRefused carries the same stream to the gate).
	var degenerate bytes.Buffer
	if err := gob.NewEncoder(&degenerate).Encode(&modelState{
		Version: modelStateVersion, ClassRows: 3,
		Encoder: encoder.State{Kind: "rbf", InDim: 78},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(degenerate.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		c, info, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted inputs must be fully usable: a decode that "succeeds"
		// into a model that panics on first predict is the same bug.
		if c == nil {
			t.Fatal("nil model with nil error")
		}
		if c.Dim() <= 0 || c.NumClasses() <= 0 {
			t.Fatalf("decoded a degenerate %d×%d model", c.NumClasses(), c.Dim())
		}
		if info.Classes != c.NumClasses() || info.Dim != c.Dim() {
			t.Fatalf("info %dx%d disagrees with model %dx%d", info.Classes, info.Dim, c.NumClasses(), c.Dim())
		}
		probe := make([]float32, c.Snapshot().Enc.InDim())
		if p := c.Predict(probe); p < 0 || p >= c.NumClasses() {
			t.Fatalf("decoded model predicts out-of-range class %d", p)
		}
	})
}
