// Package control is the model control plane of the serving runtime: an
// HTTP surface, mounted on the telemetry admin endpoint, through which an
// operator hands a running detector a new model without dropping a
// packet. It closes the retrain→shadow→promote loop the paper's online-
// learning story needs in production:
//
//	POST   /model              — validated hot reload (mode=reload, default)
//	POST   /model?mode=shadow  — attach the upload as the shadow candidate
//	POST   /model/promote      — promote the shadow to primary (atomic swap)
//	POST   /model/demote       — detach the shadow
//	GET    /model              — serving status (version, geometry, shadow)
//
// An upload is the request body and nothing else: one model snapshot,
// core.SaveSnapshot's v2 or the v1 body earlier releases wrote. Every
// upload clears Admit — decoded, validated against the serving geometry
// (hyperspace dimensionality, class count, input feature count, recorded
// quantization width) and scored on the built-in sanity batch — BEFORE
// the serving model is touched; publication is one
// atomic COW swap (core.COWModel.ReplaceModel), under which a live
// quantize.AttachLive derive hook re-packs the class memory
// automatically. A rejected upload therefore leaves the serving version
// and the verdict stream bit-identically untouched — pinned by the
// control-plane tests and the differential-replay suite.
//
// Admit is also the gate in front of the one other path that turns
// outside bytes into a serving model: a cluster worker's session-opening
// snapshot.
package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
)

// DefaultMaxUploadBytes caps one model upload (64 MiB — two orders of
// magnitude above the paper-scale snapshots, small enough that a rogue
// client cannot balloon the process).
const DefaultMaxUploadBytes = 64 << 20

// sanityRows is the size of the sanity batch every upload is scored on.
const sanityRows = 64

// Config assembles a Plane.
type Config struct {
	// Model is the serving COWModel uploads publish into. Required.
	Model *core.COWModel
	// Width is the serving width: 0 (float32) or 1, as
	// pipeline.CheckWidth says; New refuses any other. Uploads recording
	// a different nonzero width are rejected, and shadow candidates are
	// packed at this width so divergence measures model drift, not
	// quantization error.
	Width bitpack.Width
	// Shadow, when set, is the engine-attached tap shadow uploads and
	// promote/demote operate on; without it shadow mode is rejected.
	Shadow *pipeline.Shadow
}

// Plane is the model control plane over one serving COWModel. Build with
// New, mount Handler on the admin endpoint
// (telemetry.ListenAndServe). All handlers are safe for concurrent
// requests; upload validation runs outside the swap, so a slow or
// rejected upload never stalls or perturbs serving. An upload is the
// raw request body, one snapshot capped at DefaultMaxUploadBytes, and
// clears Admit like every other model that reaches serving.
type Plane struct {
	cow    *core.COWModel
	width  bitpack.Width
	shadow *pipeline.Shadow
	maxUp  int64 // DefaultMaxUploadBytes

	// mu guards the shadow bookkeeping (which float model the tap's
	// candidate was packed from) and is held across a promotion's swap,
	// so promote publishes exactly the model the operator watched
	// diverge, once.
	mu          sync.Mutex
	shadowModel *core.Model
}

// New validates cfg and builds the plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("control: nil serving model")
	}
	if err := pipeline.CheckWidth(cfg.Width); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	return &Plane{
		cow: cfg.Model, width: cfg.Width, shadow: cfg.Shadow,
		maxUp: DefaultMaxUploadBytes,
	}, nil
}

// Status is the GET /model response shape.
type Status struct {
	// Version is the serving model's COW publication version.
	Version uint64 `json:"version"`
	// Classes and Dim are the serving geometry.
	Classes int `json:"classes"`
	Dim     int `json:"dim"`
	// Width is the serving quantization width (0 = float32).
	Width int `json:"width"`
	// ShadowActive reports whether a shadow candidate is attached.
	ShadowActive bool `json:"shadow_active"`
}

// Status reports the current serving state.
func (p *Plane) Status() Status {
	return Status{
		Version: p.cow.Version(),
		Classes: p.cow.NumClasses(), Dim: p.cow.Dim(),
		Width:        int(p.width),
		ShadowActive: p.shadow != nil && p.shadow.Active(),
	}
}

// Handler returns the control-plane routes, rooted at /model. Mount it
// under both "/model" and "/model/" when registering on a ServeMux.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/model", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, p.Status())
		case http.MethodPost:
			p.handleUpload(w, r)
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET for status, POST to upload a model")
		}
	})
	mux.HandleFunc("/model/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		p.handlePromote(w)
	})
	mux.HandleFunc("/model/demote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		p.handleDemote(w)
	})
	return mux
}

// handleUpload decodes, validates and sanity-scores one uploaded model,
// then publishes it — as the primary (mode=reload, one atomic COW swap)
// or as the shadow candidate (mode=shadow). Every rejection path returns
// before any serving state is touched.
func (p *Plane) handleUpload(w http.ResponseWriter, r *http.Request) {
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "reload"
	}
	if mode != "reload" && mode != "shadow" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want reload or shadow)", mode))
		return
	}
	m, info, err := Admit(http.MaxBytesReader(w, r.Body, p.maxUp), p.serving())
	if err != nil {
		// Which gate refused picks the status: 413 a body past the upload
		// cap, 400 undecodable (any body but the snapshot itself, which
		// the message says), 409 wrong geometry, 422 a prediction that
		// panicked or left the model's classes.
		status, msg := http.StatusBadRequest, err.Error()
		var rej *rejection
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			status = http.StatusRequestEntityTooLarge
		case errors.As(err, &rej):
			status = rej.status
		}
		if status == http.StatusBadRequest {
			msg = "POST /model takes the raw snapshot bytes: " + msg
		}
		httpError(w, status, msg)
		return
	}

	switch mode {
	case "reload":
		if err := p.cow.ReplaceModel(m); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"published": true, "version": p.cow.Version(), "source_format": info.Format,
		})
	case "shadow":
		if p.shadow == nil {
			httpError(w, http.StatusConflict, "no shadow tap attached to the serving engine")
			return
		}
		cand, err := servingClassifier(m, p.width)
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		p.mu.Lock()
		p.shadowModel = m
		p.shadow.Set(cand)
		p.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"shadow_attached": true, "source_format": info.Format, "width": int(p.width),
		})
	}
}

// Apply admits one model snapshot stream against the serving model and
// publishes it as the primary with one atomic COW swap. It is the
// transport-free form of POST /model (mode=reload): the cluster worker
// applies replicated snapshots through it, so a snapshot pushed over the
// wire clears exactly the gate an HTTP upload would. The returned version
// is the serving version after the call; on error the serving model, its
// version, and the verdict stream are bit-identically untouched.
func (p *Plane) Apply(r io.Reader) (uint64, error) {
	m, _, err := Admit(io.LimitReader(r, p.maxUp), p.serving())
	if err == nil {
		err = p.cow.ReplaceModel(m)
	}
	return p.cow.Version(), err
}

// handlePromote publishes the current shadow candidate as the primary —
// one atomic COW swap — and detaches the tap (with identical models
// serving, divergence is zero by construction, so the tap carries no
// signal until the next candidate arrives).
func (p *Plane) handlePromote(w http.ResponseWriter) {
	// Read, swap and clear under one hold of p.mu: racing promotes publish
	// the candidate once, and an attach cannot land between the swap and
	// the clear. Nothing takes p.mu while holding the COWModel's lock.
	p.mu.Lock()
	m := p.shadowModel
	if m == nil || p.shadow == nil {
		p.mu.Unlock()
		httpError(w, http.StatusConflict, "no shadow candidate to promote")
		return
	}
	if err := p.cow.ReplaceModel(m); err != nil {
		p.mu.Unlock()
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	p.shadowModel = nil
	p.shadow.Clear()
	version := p.cow.Version()
	p.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "version": version})
}

// handleDemote detaches the shadow candidate (one atomic tap swap); the
// primary is untouched.
func (p *Plane) handleDemote(w http.ResponseWriter) {
	if p.shadow == nil {
		httpError(w, http.StatusConflict, "no shadow tap attached to the serving engine")
		return
	}
	p.mu.Lock()
	had := p.shadowModel != nil || p.shadow.Active()
	p.shadowModel = nil
	p.shadow.Clear()
	p.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"demoted": had})
}

// Geometry is what a model must fit before it may serve: the serving
// engine featurizes flows into a fixed input space, scores in a fixed
// hyperspace and indexes a fixed class-name list, so every mismatch
// would be a panic or a silently wrong verdict stream if it got through.
type Geometry struct {
	// Dim is the hyperspace dimensionality; 0 accepts the model's own
	// (nothing is serving yet, so there is nothing to contradict).
	Dim int
	// Classes and Inputs are the class count and the encoder's input
	// feature count.
	Classes, Inputs int
	// Width is the serving width, 0 (float32) or 1: the sanity batch is
	// scored at it, and a snapshot recording a different nonzero width is
	// refused. Admit refuses any other Width before it decodes a byte.
	Width bitpack.Width
}

// serving is the geometry of the model the plane publishes into.
func (p *Plane) serving() Geometry {
	snap := p.cow.Snapshot()
	return Geometry{
		Dim: snap.Class.Cols, Classes: snap.Class.Rows,
		Inputs: snap.Enc.InDim(), Width: p.width,
	}
}

// rejection is an Admit error tagged with the HTTP status of the gate
// that refused, for the one caller that answers over HTTP.
type rejection struct {
	status int
	err    error
}

func (r *rejection) Error() string { return r.err.Error() }
func (r *rejection) Unwrap() error { return r.err }

// Admit is the one gate between outside bytes and a serving model:
// decode (core.DecodeSnapshot, either format), geometry against want,
// then a panic-guarded sanity batch of 64 fixed in-domain vectors scored
// at want.Width and range-checked. POST /model, Plane.Apply and a cluster
// worker's session-opening snapshot all call it in this one form and keep
// only their transport; they differ in where want comes from (the model
// already serving, the session hello). Nothing is published here: on
// success the caller owns a model that has already predicted at the width
// it will serve at.
func Admit(r io.Reader, want Geometry) (*core.Model, core.SnapshotInfo, error) {
	if err := pipeline.CheckWidth(want.Width); err != nil {
		return nil, core.SnapshotInfo{}, &rejection{http.StatusConflict, err}
	}
	m, info, err := core.DecodeSnapshot(r)
	if err != nil {
		return nil, core.SnapshotInfo{}, &rejection{http.StatusBadRequest, err}
	}
	if err := want.check(m, info); err != nil {
		return nil, core.SnapshotInfo{}, &rejection{http.StatusConflict, err}
	}
	if err := runSanity(m, want.Width); err != nil {
		return nil, core.SnapshotInfo{}, &rejection{http.StatusUnprocessableEntity, err}
	}
	return m, info, nil
}

// check compares a decoded model with the geometry it must fit.
func (g Geometry) check(m *core.Model, info core.SnapshotInfo) error {
	if g.Dim != 0 && m.Dim() != g.Dim {
		return fmt.Errorf("model dim %d, serving %d", m.Dim(), g.Dim)
	}
	if m.NumClasses() != g.Classes {
		return fmt.Errorf("model has %d classes, serving %d", m.NumClasses(), g.Classes)
	}
	if m.Enc.InDim() != g.Inputs {
		return fmt.Errorf("model encodes %d input features, serving %d", m.Enc.InDim(), g.Inputs)
	}
	if info.DerivedWidth != 0 && g.Width != 0 && info.DerivedWidth != int(g.Width) {
		// The float class matrix is saved either way, so re-packing would
		// be exact — but a snapshot validated at one deployment width and
		// uploaded to another is an operator mistake worth refusing.
		return fmt.Errorf("snapshot recorded %d-bit serving, this deployment serves %d-bit",
			info.DerivedWidth, int(g.Width))
	}
	return nil
}

// servingClassifier lowers m to the serving width — exactly what the
// engine computes — for sanity scoring and shadow attachment.
func servingClassifier(m *core.Model, width bitpack.Width) (pipeline.Classifier, error) {
	if width == 0 {
		return m, nil
	}
	return quantize.FromCore(m, width)
}

// runSanity scores the candidate at the serving width on sanityRows
// fixed in-domain vectors (normalized features are zero-mean
// unit-variance, so unit-interval draws are well within range) and
// range-checks every verdict: the floor that catches a decoded-but-broken
// model without asking the operator for labeled data. A panic during
// prediction is converted to a rejection — outside bytes must never be
// able to crash the serving process.
func runSanity(m *core.Model, width bitpack.Width) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sanity batch: prediction panicked: %v", r)
		}
	}()
	c, err := servingClassifier(m, width)
	if err != nil {
		return err
	}
	x := hdc.NewMatrix(sanityRows, m.Enc.InDim())
	r := rng.New(0x5a17b0) // fixed: the gate must be reproducible
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	preds := make([]int, x.Rows)
	c.PredictBatchInto(x, preds)
	for i, pred := range preds {
		if pred < 0 || pred >= m.NumClasses() {
			return fmt.Errorf("sanity batch: row %d predicted class %d of %d", i, pred, m.NumClasses())
		}
	}
	return nil
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes one JSON error response.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
