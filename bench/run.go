package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"cyberhd"
)

// options are the knobs of one run.
type options struct {
	Seed    uint64
	Seconds float64 // how long the timed passes (or the traced run's repeats) last
	Trace   bool    // per-layer run instead of the end-to-end run
	Quick   bool    // smoke sizes: inputs ÷ 20, one set-up, one pass
	OutDir  string  // where trace files and profiles go

	// breakReference corrupts the reference fingerprint, so every pass
	// fails verification — the test of the failed-pass path.
	breakReference bool
}

func (o options) div() int {
	if o.Quick {
		return 20
	}
	return 1
}

// setupRepeats is how many times set-up runs, so setup_s is not one
// reading.
func (o options) setupRepeats() int {
	if o.Quick || o.Trace {
		return 1
	}
	return 5
}

// result is one run of one workload, as printed and as stored by the
// all-workloads mode.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Passes    int                `json:"passes"`
	Sizes     map[string]int     `json:"sizes"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// fail records a failed pass: its offered units count against the run.
func (r *result) fail(units int, why string) {
	r.Failed += units
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, why)
	}
}

// runWorkload measures one workload: the end-to-end metrics from untraced
// timed passes, or (Trace) the per-layer metrics from the traced run.
func runWorkload(w *workload, o options) (*result, error) {
	in, err := w.generate(o.Seed, o.div())
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Trace: o.Trace, Sizes: map[string]int{"sessions": sessions(w.Sessions, o.div())}}
	catalogue := endToEnd
	if o.Trace {
		catalogue = perLayer
	}
	rec := newRecorder(catalogue)
	switch {
	case o.Trace:
		err = runLayers(w, in, o, rec, res)
	case w.Engine == engineNone:
		err = runTrain(w, in, o, rec, res)
	default:
		err = runServe(w, in, o, rec, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = rec.summaries(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// repeatSetup runs set-up o.setupRepeats() times, records the timings and
// returns the last detector, closing the others.
func repeatSetup(w *workload, o options, rec *recorder) (*served, error) {
	var s *served
	for i := 0; i < o.setupRepeats(); i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = w.setup(o.div()); err != nil {
			return nil, err
		}
		if !o.Trace {
			rec.add("setup_s", s.setupS)
		}
	}
	return s, nil
}

// runServe is the end-to-end run of a serving workload: set-up (timed,
// repeated), the reference, one warm-up pass, then timed passes until
// o.Seconds have gone by. A failed pass still contributes its timings;
// the run's failed count is what marks them untrustworthy.
func runServe(w *workload, in *inputs, o options, rec *recorder, res *result) error {
	s, err := repeatSetup(w, o, rec)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := buildReference(s, in)
	if err != nil {
		return err
	}
	if o.breakReference {
		ref.FP.Sum++
	}
	in.Labels = nil // ground truth is spent; do not keep it alive through the passes
	pkts, flows := len(in.Packets), ref.Stats.Flows
	res.Sizes["pkts"], res.Sizes["flows"], res.Sizes["alerts"] = pkts, flows, ref.Stats.Alerts
	if _, err := s.pass(in, ref); err != nil { // warm-up: caches, pools, lazy set-up
		return err
	}
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for res.Passes == 0 || (!o.Quick && time.Now().Before(deadline)) {
		// Every pass starts from a collected heap, so the collector's
		// cycles fall at the same points of every pass instead of
		// wherever the previous pass left the pacer.
		runtime.GC()
		p, err := s.pass(in, ref)
		if err != nil {
			return err
		}
		res.Passes++
		res.Attempted += pkts
		if p.Fail != "" {
			res.fail(pkts, fmt.Sprintf("pass %d: %s", res.Passes, p.Fail))
		}
		rec.add("pkts_per_s", float64(pkts)/p.Wall.Seconds())
		rec.add("cpu_ns_per_pkt", nanos(p.CPU)/float64(pkts))
		rec.add("alloc_bytes_per_flow", float64(p.Alloc)/float64(flows))
	}
	rec.add("accuracy", ref.Accuracy)
	return nil
}

// runTrain is the end-to-end run of the train workload. Set-up is the
// dataset synthesis; a pass is one TrainDetector call; the unit of work
// is the dataset row. A pass fails when training errors or the trained
// class memory differs from the warm-up pass's (training is seeded).
func runTrain(w *workload, in *inputs, o options, rec *recorder, res *result) error {
	rec.add("setup_s", in.GenS)
	for i := 1; i < o.setupRepeats(); i++ {
		again, err := w.generate(o.Seed, o.div())
		if err != nil {
			return err
		}
		rec.add("setup_s", again.GenS)
	}
	ds, cfg := in.Dataset, trainConfig()
	rows := ds.Len()
	res.Sizes["rows"], res.Sizes["features"] = rows, ds.NumFeatures()
	warm, err := cyberhd.TrainDetector(ds, cfg)
	if err != nil {
		return err
	}
	want := modelDigest(warm)
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for res.Passes == 0 || (!o.Quick && time.Now().Before(deadline)) {
		runtime.GC() // as in runServe: every pass starts from a collected heap
		alloc0, _ := memNow()
		cpu0 := cpuNow()
		t0 := time.Now()
		det, err := cyberhd.TrainDetector(ds, cfg)
		wall := time.Since(t0)
		cpu := cpuNow() - cpu0
		alloc1, _ := memNow()
		res.Passes++
		res.Attempted++
		if err != nil {
			res.fail(1, fmt.Sprintf("pass %d: %v", res.Passes, err))
		} else if got := modelDigest(det); got != want || det.TestAccuracy != warm.TestAccuracy {
			res.fail(1, fmt.Sprintf("pass %d: trained model %x (accuracy %v) differs from the warm-up's %x (%v)",
				res.Passes, got, det.TestAccuracy, want, warm.TestAccuracy))
		}
		rec.add("pkts_per_s", float64(rows)/wall.Seconds())
		rec.add("cpu_ns_per_pkt", nanos(cpu)/float64(rows))
		rec.add("alloc_bytes_per_flow", float64(alloc1-alloc0)/float64(rows))
	}
	rec.add("accuracy", warm.TestAccuracy)
	return nil
}

// modelDigest hashes a detector's class memory bit for bit.
func modelDigest(d *cyberhd.Detector) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range d.Model.Class.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// ensureOutDir makes the directory trace files and profiles go to.
func ensureOutDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	return nil
}
