package control

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"hash/crc32"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
)

// trainModel builds a deterministic small model: classes Gaussian blobs
// in inDim features, encoded into dim hyperspace.
func trainModel(t *testing.T, classes, inDim, dim int, seed uint64) (*core.Model, *hdc.Matrix, []int) {
	t.Helper()
	r := rng.New(seed)
	x := hdc.NewMatrix(90*classes, inDim)
	y := make([]int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		y[i] = i % classes
		row := x.Row(i)
		for j := range row {
			row[j] = 2*float32(y[i]) + 0.3*r.NormFloat32()
		}
	}
	m, err := core.Train(encoder.NewRBF(inDim, dim, 0, seed+1), x, y,
		core.Options{Classes: classes, Epochs: 4, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y
}

// planeServer stands up a serving COWModel, a shadow tap and the control
// plane behind an httptest server.
func planeServer(t *testing.T, cfg Config) (*core.COWModel, *pipeline.Shadow, *httptest.Server) {
	t.Helper()
	m, _, _ := trainModel(t, 3, 8, 64, 11)
	cow := core.NewCOWModel(m)
	tap := pipeline.NewShadow()
	cfg.Model, cfg.Shadow = cow, tap
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	return cow, tap, srv
}

func snapshotBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, core.NewCOWModel(m)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postModel(t *testing.T, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	return postAs(t, url, "application/octet-stream", body)
}

// postAs posts body to url as content type ctype and decodes the JSON
// answer.
func postAs(t *testing.T, url, ctype string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	return resp, out
}

func getStatus(t *testing.T, url string) Status {
	t.Helper()
	resp, err := http.Get(url + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReloadHappyPath(t *testing.T) {
	cow, _, srv := planeServer(t, Config{})
	v0 := cow.Version()
	cand, x, _ := trainModel(t, 3, 8, 64, 77) // same geometry, different weights
	resp, out := postModel(t, srv.URL+"/model", snapshotBytes(t, cand))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload rejected: %d %v", resp.StatusCode, out)
	}
	if cow.Version() != v0+1 {
		t.Fatalf("version %d after reload, want %d", cow.Version(), v0+1)
	}
	// Serving now follows the uploaded weights exactly.
	for i := 0; i < x.Rows; i += 7 {
		if got, want := cow.Predict(x.Row(i)), cand.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: serving predicts %d, uploaded model %d", i, got, want)
		}
	}
	if st := getStatus(t, srv.URL); st.Version != v0+1 {
		t.Fatalf("status version %d, want %d", st.Version, v0+1)
	}
}

// TestRejectionsLeaveServingUntouched is the control plane's core
// contract: every rejection path — corrupt bytes, geometry mismatches,
// a body in any format but a snapshot — must return before the serving
// model changes.
func TestRejectionsLeaveServingUntouched(t *testing.T) {
	cow, _, srv := planeServer(t, Config{})
	v0 := cow.Version()
	probe := make([]float32, 8)
	for i := range probe {
		probe[i] = float32(i)
	}
	p0 := cow.Predict(probe)

	wrongDim, _, _ := trainModel(t, 3, 8, 32, 5)
	wrongClasses, _, _ := trainModel(t, 4, 8, 64, 5)
	wrongInput, _, _ := trainModel(t, 3, 6, 64, 5)
	masksAll, _, _ := trainModel(t, 3, 8, 64, 5) // a 1-bit model would mask all 64 dims
	masksAll.History = append(masksAll.History, core.CycleStats{Dropped: 64})
	// The one upload format is the snapshot itself: a multipart form
	// wrapping a valid one is refused, not unpacked.
	valid, _, _ := trainModel(t, 3, 8, 64, 77)
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	part, _ := mw.CreateFormFile("model", "model.snap")
	part.Write(snapshotBytes(t, valid))
	mw.Close()
	ctype := map[string]string{"multipart form around a valid snapshot": mw.FormDataContentType()}

	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"corrupt", []byte("not a snapshot of anything"), http.StatusBadRequest},
		{"truncated", snapshotBytes(t, wrongDim)[:40], http.StatusBadRequest},
		{"wrong dim", snapshotBytes(t, wrongDim), http.StatusConflict},
		{"wrong classes", snapshotBytes(t, wrongClasses), http.StatusConflict},
		{"wrong input features", snapshotBytes(t, wrongInput), http.StatusConflict},
		{"drops every dimension", snapshotBytes(t, masksAll), http.StatusBadRequest},
		{"multipart form around a valid snapshot", form.Bytes(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, out := postAs(t, srv.URL+"/model", cmp.Or(ctype[tc.name], "application/octet-stream"), tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.code, out)
		}
		msg, ok := out["error"].(string)
		if !ok {
			t.Errorf("%s: rejection carries no error message", tc.name)
		}
		if tc.name == "multipart form around a valid snapshot" &&
			(!strings.HasPrefix(msg, "POST /model takes the raw snapshot bytes: core: decoding model: ") || strings.Count(msg, "decoding model") != 1) {
			t.Errorf("%s: message %q does not say the body must be the raw snapshot, once", tc.name, msg)
		}
		if cow.Version() != v0 {
			t.Fatalf("%s: rejection bumped serving version to %d", tc.name, cow.Version())
		}
		if cow.Predict(probe) != p0 {
			t.Fatalf("%s: rejection changed serving verdicts", tc.name)
		}
	}
}

func TestShadowAttachPromoteDemote(t *testing.T) {
	cow, tap, srv := planeServer(t, Config{})
	v0 := cow.Version()
	cand, x, _ := trainModel(t, 3, 8, 64, 77)

	// Attach: the tap carries the candidate, serving is untouched.
	resp, out := postModel(t, srv.URL+"/model?mode=shadow", snapshotBytes(t, cand))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shadow attach rejected: %d %v", resp.StatusCode, out)
	}
	if !tap.Active() {
		t.Fatal("tap empty after shadow attach")
	}
	if cow.Version() != v0 {
		t.Fatalf("shadow attach bumped serving version to %d", cow.Version())
	}
	if st := getStatus(t, srv.URL); !st.ShadowActive {
		t.Fatal("status does not report the attached shadow")
	}

	// Promote: one version bump, serving now follows the candidate, tap
	// cleared.
	resp2, out2 := postModel(t, srv.URL+"/model/promote", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("promote rejected: %d %v", resp2.StatusCode, out2)
	}
	if cow.Version() != v0+1 {
		t.Fatalf("version %d after promote, want %d", cow.Version(), v0+1)
	}
	if tap.Active() {
		t.Fatal("tap still active after promote")
	}
	for i := 0; i < x.Rows; i += 11 {
		if got, want := cow.Predict(x.Row(i)), cand.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: promoted serving predicts %d, candidate %d", i, got, want)
		}
	}

	// Promote with nothing staged is a conflict.
	resp3, _ := postModel(t, srv.URL+"/model/promote", nil)
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("empty promote answered %d", resp3.StatusCode)
	}

	// Demote detaches without touching serving.
	postModel(t, srv.URL+"/model?mode=shadow", snapshotBytes(t, cand))
	if !tap.Active() {
		t.Fatal("re-attach failed")
	}
	resp4, _ := postModel(t, srv.URL+"/model/demote", nil)
	if resp4.StatusCode != http.StatusOK || tap.Active() {
		t.Fatalf("demote: status %d, tap active %v", resp4.StatusCode, tap.Active())
	}
	if cow.Version() != v0+1 {
		t.Fatalf("demote changed serving version to %d", cow.Version())
	}
}

// TestConcurrentPromotesPublishOnce: promotes racing for one staged
// candidate publish it once — exactly one 200, every other caller a 409,
// and the serving version one past where it stood. A slow derive hook
// (a large class memory being packed) holds each publication open long
// enough for the racing promotes to meet inside it.
func TestConcurrentPromotesPublishOnce(t *testing.T) {
	cow, tap, srv := planeServer(t, Config{})
	cand, _, _ := trainModel(t, 3, 8, 64, 77)
	if resp, out := postModel(t, srv.URL+"/model?mode=shadow", snapshotBytes(t, cand)); resp.StatusCode != http.StatusOK {
		t.Fatalf("shadow attach rejected: %d %v", resp.StatusCode, out)
	}
	cow.SetDerive(func(*core.Model) any {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	v0 := cow.Version()
	const callers = 8
	start := make(chan struct{})
	codes := make(chan int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(srv.URL+"/model/promote", "application/octet-stream", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	close(start)
	wg.Wait()
	close(codes)
	count := map[int]int{}
	for c := range codes {
		count[c]++
	}
	if count[http.StatusOK] != 1 || count[http.StatusConflict] != callers-1 {
		t.Fatalf("promote answers %v, want one 200 and %d 409s", count, callers-1)
	}
	if got := cow.Version(); got != v0+1 {
		t.Fatalf("version %d after racing promotes, want %d", got, v0+1)
	}
	if tap.Active() {
		t.Fatal("tap still active after promote")
	}
}

func TestWidthConflictRejected(t *testing.T) {
	// A snapshot recording 4-bit serving (as releases that served W4 wrote
	// them) uploaded to a 1-bit plane is an operator mistake the plane
	// refuses.
	cow, _, srv := planeServer(t, Config{Width: 1})

	cand, _, _ := trainModel(t, 3, 8, 64, 77)
	candCow := core.NewCOWModel(cand)
	candCow.SetDerive(func(m *core.Model) any {
		q, _ := quantize.FromCore(m, 4)
		return q
	})
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, candCow); err != nil {
		t.Fatal(err)
	}
	resp, out := postModel(t, srv.URL+"/model", buf.Bytes())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("width-skewed snapshot answered %d: %v", resp.StatusCode, out)
	}
	if cow.Version() != 1 {
		t.Fatalf("rejection bumped version to %d", cow.Version())
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "4-bit") || !strings.Contains(msg, "1-bit") {
		t.Fatalf("error does not name both widths: %q", msg)
	}
}

// TestOfflineWidthsRefused: the plane serves float32 and W1 only. New
// refuses a W4 plane, and Admit refuses a W4 geometry before it decodes
// a byte, so no sanity batch ever runs at an offline width — both with
// pipeline.CheckWidth's message.
func TestOfflineWidthsRefused(t *testing.T) {
	want := pipeline.CheckWidth(4).Error()
	if _, err := New(Config{Model: new(core.COWModel), Width: 4}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New at W4: %v, want %q", err, want)
	}
	_, _, err := Admit(strings.NewReader("not a snapshot"), Geometry{Classes: 3, Inputs: 8, Width: 4})
	var rej *rejection
	if !errors.As(err, &rej) || rej.status != http.StatusConflict || !strings.Contains(err.Error(), want) {
		t.Fatalf("Admit at W4: %v, want a 409 refusal %q", err, want)
	}
}

func TestUploadCap(t *testing.T) {
	m, _, _ := trainModel(t, 3, 8, 64, 11)
	cow := core.NewCOWModel(m)
	p, err := New(Config{Model: cow})
	if err != nil {
		t.Fatal(err)
	}
	p.maxUp = 128
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	huge := make([]byte, 4096)
	resp, err := http.Post(srv.URL+"/model", "application/octet-stream", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("over-cap upload accepted")
	}
	// A valid snapshot past the cap is refused as too large, not as a
	// body in the wrong format.
	resp, err = http.Post(srv.URL+"/model", "application/octet-stream", bytes.NewReader(snapshotBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap snapshot answered %d, want 413", resp.StatusCode)
	}
	if cow.Version() != 1 {
		t.Fatalf("over-cap upload bumped version to %d", cow.Version())
	}
}

func TestMethodAndModeErrors(t *testing.T) {
	_, _, srv := planeServer(t, Config{})
	resp, _ := postModel(t, srv.URL+"/model?mode=sideways", []byte("x"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode answered %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/model", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE answered %d", resp2.StatusCode)
	}
	resp3, err := http.Get(srv.URL + "/model/promote")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET promote answered %d", resp3.StatusCode)
	}
}

func TestV1UploadAccepted(t *testing.T) {
	// Operators hold v1 files from before the snapshot format existed;
	// the upload path must accept them (DecodeSnapshot's fallback). core's
	// frozen v1 fixture has the serving geometry here: 3 classes, 8
	// inputs, 64 dimensions.
	const fixture = "../core/testdata/model_v1.snapshot"
	cow, _, srv := planeServer(t, Config{})
	body, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	cand, _, err := core.LoadSnapshot(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postModel(t, srv.URL+"/model", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 upload rejected: %d %v", resp.StatusCode, out)
	}
	if f, _ := out["source_format"].(float64); int(f) != core.SnapshotFormatV1 {
		t.Fatalf("source_format %v, want v1", out["source_format"])
	}
	_, x, _ := trainModel(t, 3, 8, 64, 77)
	for i := 0; i < x.Rows; i += 7 {
		if got, want := cow.Predict(x.Row(i)), cand.Predict(x.Row(i)); got != want {
			t.Fatalf("row %d: v1 reload serving predicts %d, uploaded model %d", i, got, want)
		}
	}
}

func TestStatusShape(t *testing.T) {
	_, _, srv := planeServer(t, Config{Width: 1})
	st := getStatus(t, srv.URL)
	if st.Version != 1 || st.Classes != 3 || st.Dim != 64 || st.Width != 1 || st.ShadowActive {
		t.Fatalf("unexpected status %+v", st)
	}
}

// TestApplyRunsTheUploadGates pins the transport-free reload path the
// cluster replicates snapshots through: a valid snapshot publishes with
// one version bump, and every rejection class — garbage bytes, wrong
// geometry — leaves the serving model and version untouched, exactly
// like its HTTP counterpart.
func TestApplyRunsTheUploadGates(t *testing.T) {
	m, _, _ := trainModel(t, 3, 8, 64, 11)
	cow := core.NewCOWModel(m)
	p, err := New(Config{Model: cow})
	if err != nil {
		t.Fatal(err)
	}
	v0 := cow.Version()

	// Valid snapshot: accepted, exactly one COW publication.
	good := snapshotBytes(t, m)
	v, err := p.Apply(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if v != v0+1 || cow.Version() != v0+1 {
		t.Fatalf("Apply version = %d, cow = %d, want %d", v, cow.Version(), v0+1)
	}

	// Garbage: rejected at decode, version untouched.
	if v, err := p.Apply(strings.NewReader("not a model snapshot")); err == nil {
		t.Fatal("garbage accepted")
	} else if v != v0+1 || cow.Version() != v0+1 {
		t.Fatalf("rejected Apply moved the version: %d / %d", v, cow.Version())
	}

	// Wrong geometry (different hyperspace dim): rejected at validate.
	other, _, _ := trainModel(t, 3, 8, 128, 13)
	if _, err := p.Apply(bytes.NewReader(snapshotBytes(t, other))); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if cow.Version() != v0+1 {
		t.Fatalf("geometry rejection moved the version to %d", cow.Version())
	}
}

// wireState names the fields of core's gob bodies (v1 and v2 share them;
// gob matches by field name) so a test can write streams that no code in
// the tree can write any more.
type wireState struct {
	Version              int // v1 only
	ClassRows, ClassCols int
	ClassData            []float32
	Encoder              encoder.State
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v2Stream frames a gob body the way core.SaveSnapshot does: magic, then
// the big-endian shape/length/CRC header.
func v2Stream(t *testing.T, st wireState) []byte {
	t.Helper()
	body := gobBytes(t, &st)
	out := []byte("CYHDSNP2")
	for _, v := range []uint32{uint32(st.ClassRows), uint32(st.ClassCols), uint32(len(body)), crc32.ChecksumIEEE(body)} {
		out = binary.BigEndian.AppendUint32(out, v)
	}
	return append(out, body...)
}

// TestZeroDimensionModelRefused pins the decode-side shape check: a v1
// body declaring a 0-dimensional RBF encoder and a 3×0 class matrix
// satisfies every length-equals-product test, fits the geometry the
// cluster worker asks for (Dim unconstrained), predicts
// class 0 for every sanity row — and used to be admitted as an IDS that
// never alerts. It is a decode rejection now.
func TestZeroDimensionModelRefused(t *testing.T) {
	body := gobBytes(t, &wireState{
		Version: 1, ClassRows: 3, ClassCols: 0,
		Encoder: encoder.State{Kind: "rbf", Dim: 0, InDim: netflow.NumFeatures},
	})
	m, _, err := Admit(bytes.NewReader(body), Geometry{Classes: 3, Inputs: netflow.NumFeatures})
	if err == nil {
		t.Fatalf("admitted a model with Dim() == %d", m.Dim())
	}
	var rej *rejection
	if !errors.As(err, &rej) || rej.status != http.StatusBadRequest {
		t.Fatalf("want a decode rejection (400), got %v", err)
	}
}

// TestRetiredEncoderKindsRefused: "linear" and "idlevel" encoder states
// were loadable once; nothing writes them now, and a stream that carries
// one is refused at decode — by name, before geometry or sanity — from
// Admit and so from POST /model.
func TestRetiredEncoderKindsRefused(t *testing.T) {
	cow, _, srv := planeServer(t, Config{})
	cand, _, _ := trainModel(t, 3, 8, 64, 77)
	want := Geometry{Dim: 64, Classes: 3, Inputs: 8}
	for _, kind := range []string{"rbf", "idlevel", "linear"} {
		st := wireState{
			ClassRows: cand.Class.Rows, ClassCols: cand.Class.Cols, ClassData: cand.Class.Data,
			Encoder: encoder.CaptureState(cand.Enc),
		}
		st.Encoder.Kind = kind
		stream := v2Stream(t, st)
		_, _, err := Admit(bytes.NewReader(stream), want)
		if kind == "rbf" { // the hand-framed stream itself is well-formed
			if err != nil {
				t.Fatalf("hand-framed rbf snapshot refused: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "retired") || !strings.Contains(err.Error(), kind) {
			t.Errorf("%s: Admit error %v, want a refusal naming the retired kind", kind, err)
		}
		resp, out := postModel(t, srv.URL+"/model", stream)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out["error"].(string), kind) {
			t.Errorf("%s: POST /model answered %d %v, want 400 naming the kind", kind, resp.StatusCode, out)
		}
	}
	if cow.Version() != 1 {
		t.Fatalf("a refused upload moved the serving version to %d", cow.Version())
	}
}

// TestSanityGuardsPanickingPredict pins the gate's panic guard on a model
// no decoder would hand it: a class matrix whose storage is shorter than
// its declared shape panics inside the first predict, and the gate turns
// that into a rejection instead of taking the serving process down.
func TestSanityGuardsPanickingPredict(t *testing.T) {
	m := &core.Model{
		Enc:   encoder.NewRBF(8, 64, 0, 5),
		Class: &hdc.Matrix{Rows: 3, Cols: 64, Data: make([]float32, 64)},
	}
	err := runSanity(m, 0)
	if err == nil || !strings.Contains(err.Error(), "prediction panicked") {
		t.Fatalf("runSanity over an inconsistent model: %v, want the panic converted", err)
	}
}
