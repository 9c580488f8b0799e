package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"cyberhd/internal/encoder"
)

// This file is the v2 snapshot format of the model control plane: a
// serialized COWModel publication — encoder state, class matrix, the
// Scorer's cached row norms, the model version counter and the width of
// the quantized derived artifact — restorable into a serving-ready
// COWModel whose verdicts are bit-identical to the original
// (TestSnapshotV2RoundTrip, and the snapshot cells of the root package's
// TestContractMatrix on every engine, pin this). It is the only model
// format written. v1 files from earlier releases load through the same
// entry points: DecodeSnapshot sniffs the stream and falls back to the v1
// body decoder (persist.go), which rebuilds the norm cache from the class
// data.

// snapshotMagic opens every v2 snapshot stream. gob matches structs by
// field name, not by declared version, so a v1 modelState and a v2
// snapshotState would both "decode" from the wrong stream with silently
// zeroed fields — an out-of-band magic header is the only reliable
// discriminator.
var snapshotMagic = [8]byte{'C', 'Y', 'H', 'D', 'S', 'N', 'P', '2'}

// Snapshot format identifiers reported in SnapshotInfo.Format.
const (
	// SnapshotFormatV1 is the original bare-model format (read, never
	// written): no version counter, no norms, no derived-artifact record.
	SnapshotFormatV1 = 1
	// SnapshotFormatV2 is the COW-aware format written by SaveSnapshot.
	SnapshotFormatV2 = 2
)

// Decode-side allocation caps, validated against the fixed-size header
// before the gob body is read so a corrupt or adversarial stream cannot
// declare absurd matrix dimensions and make the decoder allocate them
// (FuzzLoadSnapshot pins error-not-panic on such inputs).
const (
	maxSnapshotClasses = 1 << 16
	maxSnapshotDim     = 1 << 24
	maxSnapshotBody    = 1 << 28 // 256 MiB: two orders above paper-scale snapshots
)

// snapshotHeader is the fixed-size pre-gob header, big-endian uint32s:
// the class-matrix shape (checked against the caps above and
// cross-checked against the gob body after decode), the gob body's exact
// length (checked against maxSnapshotBody before it is read, so a
// hostile stream cannot make the decoder buffer more than the cap) and
// its CRC32 (IEEE). gob is permissive enough that a flipped bit mid-body
// can still "decode" into silently different weights — for a format that
// feeds a hot-reload upload endpoint, integrity must be checked, not
// assumed.
type snapshotHeader struct {
	Rows, Cols, BodyLen, BodyCRC uint32
}

// snapshotState is the gob wire format of a COWModel publication.
type snapshotState struct {
	// ModelVersion is the COW publication counter at save time; the
	// restored COWModel continues counting from it, so a post-restore hot
	// reload is observably "one version later" across the restart.
	ModelVersion uint64
	// DerivedWidth is the bitwidth of the quantized derived artifact
	// attached to the saved snapshot (0 when serving float32). The packed
	// memory itself is not serialized: quantization is deterministic from
	// the class matrix, so recording the width and re-deriving on load
	// (quantize.AttachLive) reproduces it bit for bit at a fraction of
	// the file size.
	DerivedWidth         int
	ClassRows, ClassCols int
	ClassData            []float32
	// Norms are the Scorer's cached row norms at save time. Restores
	// inject them instead of recomputing so verdicts stay bit-identical
	// even across releases that change the norm kernel.
	Norms        []float64
	EffectiveDim int
	History      []CycleStats
	Opts         persistedOptions
	Encoder      encoder.State
}

// SnapshotInfo describes a decoded snapshot: which format the stream
// carried and the restored model's identity, for logging and for the
// control plane's compatibility checks.
type SnapshotInfo struct {
	// Format is SnapshotFormatV1 or SnapshotFormatV2.
	Format int
	// ModelVersion is the restored COW version counter (1 for v1 files,
	// which predate versioning).
	ModelVersion uint64
	// DerivedWidth is the recorded quantized-artifact bitwidth (0 when
	// the saved model served float32, and always 0 for v1 files).
	DerivedWidth int
	// Classes and Dim are the class count and hyperspace dimensionality.
	Classes, Dim int
}

// SaveSnapshot writes the live publication of c in the v2 snapshot
// format: encoder state (including the RNG continuation), class matrix,
// cached Scorer norms, the version counter and the derived artifact's
// width. LoadSnapshot restores a serving-ready COWModel with
// bit-identical verdicts.
func SaveSnapshot(w io.Writer, c *COWModel) error {
	if c == nil {
		return fmt.Errorf("core: SaveSnapshot: nil model")
	}
	// One load: a published snapshot and the model it carries never
	// change, so everything below describes one version.
	snap := c.snap.Load()
	m := snap.model
	state := snapshotState{
		ModelVersion: snap.Version,
		ClassRows:    snap.Class.Rows, ClassCols: snap.Class.Cols,
		ClassData:    snap.Class.Data,
		Norms:        m.Scorer().norms,
		EffectiveDim: m.EffectiveDim,
		History:      m.History,
		Opts:         persistOptions(m.opts),
		Encoder:      encoder.CaptureState(snap.Enc),
	}
	if dw, ok := snap.derived.(interface{ DeriveWidth() int }); ok {
		state.DerivedWidth = dw.DeriveWidth()
	}

	// Buffer the gob body first: the header carries its length and CRC.
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&state); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	if body.Len() > maxSnapshotBody {
		return fmt.Errorf("core: snapshot body %d bytes exceeds format cap %d", body.Len(), maxSnapshotBody)
	}
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	hdr := snapshotHeader{
		Rows: uint32(state.ClassRows), Cols: uint32(state.ClassCols),
		BodyLen: uint32(body.Len()), BodyCRC: crc32.ChecksumIEEE(body.Bytes()),
	}
	if err := binary.Write(w, binary.BigEndian, &hdr); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a model snapshot in either format — v2
// (SaveSnapshot) or the v1 body earlier releases wrote — returning the
// restored bare model, its Scorer carrying the saved norm cache, and what
// the stream declared. It is the one decoder: everything that admits
// model bytes (control.Admit) decodes here and validates the result
// before anything serves it; RestoreSnapshot or LoadSnapshot make the
// result serving-ready.
func DecodeSnapshot(r io.Reader) (*Model, SnapshotInfo, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(snapshotMagic))
	if err != nil || !bytes.Equal(head, snapshotMagic[:]) {
		// Not a v2 stream (or shorter than one magic header): hand the
		// whole stream to the v1 decoder, whose gob layer reports the
		// error for genuinely corrupt input. v1 recorded no width for a
		// quantized artifact, so re-attachment is the serving config's job
		// (pipeline engines run quantize.AttachLive when Config.Quantize
		// is set).
		m, err := loadV1(br)
		if err != nil {
			return nil, SnapshotInfo{}, err
		}
		return m, SnapshotInfo{
			Format:       SnapshotFormatV1,
			ModelVersion: 1,
			Classes:      m.Class.Rows,
			Dim:          m.Class.Cols,
		}, nil
	}
	if _, err := br.Discard(len(snapshotMagic)); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	var hdr snapshotHeader
	if err := binary.Read(br, binary.BigEndian, &hdr); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("core: decoding snapshot header: %w", err)
	}
	if hdr.Rows == 0 || hdr.Rows > maxSnapshotClasses || hdr.Cols == 0 || hdr.Cols > maxSnapshotDim {
		return nil, SnapshotInfo{}, fmt.Errorf("core: implausible snapshot shape %d×%d", hdr.Rows, hdr.Cols)
	}
	if hdr.BodyLen == 0 || hdr.BodyLen > maxSnapshotBody {
		return nil, SnapshotInfo{}, fmt.Errorf("core: implausible snapshot body length %d", hdr.BodyLen)
	}
	// Read exactly the declared body and verify its checksum before gob
	// sees a byte: corruption is rejected here instead of surfacing as a
	// model with silently different weights, and bounding the buffer
	// bounds every allocation gob can make from it.
	bodyBytes := make([]byte, hdr.BodyLen)
	if _, err := io.ReadFull(br, bodyBytes); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("core: snapshot truncated: %w", err)
	}
	if got := crc32.ChecksumIEEE(bodyBytes); got != hdr.BodyCRC {
		return nil, SnapshotInfo{}, fmt.Errorf("core: snapshot checksum mismatch (%08x != %08x)", got, hdr.BodyCRC)
	}
	var state snapshotState
	if err := gob.NewDecoder(bytes.NewReader(bodyBytes)).Decode(&state); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if state.ClassRows != int(hdr.Rows) || state.ClassCols != int(hdr.Cols) {
		return nil, SnapshotInfo{}, fmt.Errorf("core: snapshot body %d×%d contradicts header %d×%d",
			state.ClassRows, state.ClassCols, hdr.Rows, hdr.Cols)
	}
	if len(state.Norms) != 0 && len(state.Norms) != state.ClassRows {
		return nil, SnapshotInfo{}, fmt.Errorf("core: corrupt norm cache (%d norms for %d classes)",
			len(state.Norms), state.ClassRows)
	}
	m, err := (&modelState{
		ClassRows: state.ClassRows, ClassCols: state.ClassCols,
		ClassData: state.ClassData, EffectiveDim: state.EffectiveDim,
		History: state.History, Opts: state.Opts, Encoder: state.Encoder,
	}).model()
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	// model() computed norms from the class data; the saved cache, when
	// present, replaces them so scoring divides by exactly the bits the
	// original process used.
	copy(m.Scorer().norms, state.Norms)
	if state.ModelVersion == 0 {
		state.ModelVersion = 1
	}
	return m, SnapshotInfo{
		Format:       SnapshotFormatV2,
		ModelVersion: state.ModelVersion,
		DerivedWidth: state.DerivedWidth,
		Classes:      state.ClassRows,
		Dim:          state.ClassCols,
	}, nil
}

// RestoreSnapshot wraps a model DecodeSnapshot returned in a
// serving-ready COWModel. The live publication serves through the
// model's norm cache (the saved one, for v2) and continues the saved
// version counter, so verdicts are bit-identical to the process that
// wrote the snapshot and the first post-restore reload is observably a
// newer version. m is published as is, as with NewCOWModel.
// Quantized serving state is re-derived, not deserialized: hand the model
// to a pipeline config with Quantize set (or call quantize.AttachLive)
// and a recorded W1 SnapshotInfo.DerivedWidth is reproduced bit for bit
// (W1 is the one packed width serving takes).
func RestoreSnapshot(m *Model, info SnapshotInfo) *COWModel {
	c := &COWModel{version: info.ModelVersion - 1}
	c.mu.Lock()
	c.publishLocked(m)
	c.mu.Unlock()
	return c
}

// LoadSnapshot is DecodeSnapshot followed by RestoreSnapshot, for callers
// that trust the stream (their own file); bytes from outside go through
// control.Admit in between.
func LoadSnapshot(r io.Reader) (*COWModel, SnapshotInfo, error) {
	m, info, err := DecodeSnapshot(r)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return RestoreSnapshot(m, info), info, nil
}

// SaveSnapshotFile writes the live publication of c to path in the v2
// snapshot format.
func SaveSnapshotFile(path string, c *COWModel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveSnapshot(f, c); err != nil {
		return err
	}
	return f.Sync()
}
