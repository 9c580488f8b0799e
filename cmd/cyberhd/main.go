// Command cyberhd is the training and evaluation CLI.
//
// Subcommands:
//
//	cyberhd gen -dataset nsl-kdd -n 20000 -out nsl.csv     # synthesize a dataset
//	cyberhd train -in nsl.csv                              # train + full report
//	cyberhd train -dataset unsw-nb15 -n 10000 -cycles 0    # synthetic, static HDC
//	cyberhd quantize -dataset nsl-kdd -n 8000              # accuracy across bitwidths
//	cyberhd faults -dataset nsl-kdd -rate 0.1 -bits 1      # robustness spot check
//	cyberhd detect -train 3000 -sessions 1000              # end-to-end live detection
//	cyberhd detect -shards 0 -batch 64                     # flow-sharded, one engine per core
//	cyberhd detect -width 1 -batch 64                      # 1-bit (W1) packed inference
//	cyberhd detect -capture traffic.cap -jsonl alerts.jsonl # O(1)-memory replay, JSONL alerts
//	cyberhd detect -metrics :9090                          # live /metrics, /stats, /healthz
//	cyberhd serve -listen 127.0.0.1:9301                   # cluster detector worker
//	cyberhd ingest -workers 127.0.0.1:9301,127.0.0.1:9302  # fan a capture out across workers
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cyberhd"
	"cyberhd/internal/bitpack"
	"cyberhd/internal/datasets"
	"cyberhd/internal/faults"
	"cyberhd/internal/metrics"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "quantize":
		err = cmdQuantize(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyberhd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cyberhd <gen|train|quantize|faults|detect|serve|ingest> [flags]")
	os.Exit(2)
}

// dataset is the flag group gen, train, quantize and faults share — which
// dataset, how much of it, which seed — registered by newDataset alone so
// the four cannot drift.
type dataset struct {
	in, name string
	n        int
	seed     uint64
}

// newDataset starts cmd's flag set with the dataset flags. gen only
// synthesizes, so it takes no -in, and writes a larger file by default
// than the others train on.
func newDataset(cmd string) (*flag.FlagSet, *dataset) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	ds := &dataset{}
	n := 10000
	if cmd != "gen" {
		fs.StringVar(&ds.in, "in", "", "input CSV (from gen); empty = synthesize -dataset")
		n = 8000
	}
	fs.StringVar(&ds.name, "dataset", "nsl-kdd", "dataset to synthesize")
	fs.IntVar(&ds.n, "n", n, "samples to synthesize (sessions for CIC sets)")
	fs.Uint64Var(&ds.seed, "seed", 42, "random seed")
	return fs, ds
}

// load reads the -in CSV or synthesizes -dataset.
func (ds *dataset) load() (*cyberhd.Dataset, error) {
	if ds.in != "" {
		return cyberhd.LoadCSV(ds.in)
	}
	d, ok := cyberhd.DatasetByName(ds.name, ds.n, ds.seed)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q (want one of %v)", ds.name, datasets.PaperDatasets())
	}
	return d, nil
}

// train loads the dataset and trains a detector on it with cfg at -seed,
// returning the detector and the held-out split TrainDetector scored it on:
// rows the model never saw, normalized by the detector's own normalizer.
func (ds *dataset) train(cfg cyberhd.Config) (*cyberhd.Detector, *cyberhd.Dataset, error) {
	d, err := ds.load()
	if err != nil {
		return nil, nil, err
	}
	cfg.Seed = ds.seed
	det, err := cyberhd.TrainDetector(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	_, test, _ := d.NormalizedSplit(cfg.TrainFraction, cfg.Seed)
	return det, test, nil
}

func cmdGen(args []string) error {
	fs, ds := newDataset("gen")
	out := fs.String("out", "", "output CSV path (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out required")
	}
	d, err := ds.load()
	if err != nil {
		return err
	}
	if err := cyberhd.SaveCSV(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples × %d features, %d classes\n",
		*out, d.Len(), d.NumFeatures(), d.NumClasses())
	return nil
}

func cmdTrain(args []string) error {
	fs, ds := newDataset("train")
	cfg := cyberhd.DefaultConfig()
	fs.IntVar(&cfg.Dim, "dim", cfg.Dim, "physical hyperspace dimensionality")
	fs.IntVar(&cfg.Epochs, "epochs", cfg.Epochs, "adaptive epochs per cycle")
	fs.IntVar(&cfg.RegenCycles, "cycles", cfg.RegenCycles, "regeneration cycles (0 = static BaselineHD)")
	fs.Float64Var(&cfg.RegenRate, "rate", cfg.RegenRate, "regeneration rate R")
	fs.Float64Var(&cfg.LearningRate, "lr", cfg.LearningRate, "learning rate η")
	fs.Parse(args)

	det, test, err := ds.train(cfg)
	if err != nil {
		return err
	}
	fmt.Println(det)
	for _, h := range det.Model.History {
		fmt.Printf("  cycle %d: dropped=%3d D*=%4d trainAcc=%.4f\n",
			h.Cycle, h.Dropped, h.EffectiveDim, h.TrainAcc)
	}

	// Full quality report on the held-out split.
	conf := metrics.NewConfusion(det.ClassNames)
	preds := det.Model.PredictBatch(test.X)
	conf.AddAll(test.Y, preds)
	fmt.Printf("\naccuracy: %.4f   macro-F1: %.4f   detection: %.4f   false-alarm: %.4f\n",
		conf.Accuracy(), conf.MacroF1(), conf.DetectionRate(0), conf.FalseAlarmRate(0))
	fmt.Println("\nconfusion matrix:")
	fmt.Print(conf)
	fmt.Println("\nper-class report:")
	for _, r := range conf.Report() {
		fmt.Printf("  %-14s support=%5d P=%.3f R=%.3f F1=%.3f\n",
			r.Class, r.Support, r.Precision, r.Recall, r.F1)
	}
	return nil
}

func cmdQuantize(args []string) error {
	fs, ds := newDataset("quantize")
	fs.Parse(args)

	det, test, err := ds.train(cyberhd.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("float32 accuracy: %.4f   class memory: %d bits\n",
		det.Model.Evaluate(test.X, test.Y),
		det.Model.NumClasses()*det.Model.Dim()*32)
	for _, w := range bitpack.Widths {
		q, err := quantize.FromCore(det.Model, w)
		if err != nil {
			return err
		}
		fmt.Printf("%2d-bit accuracy:  %.4f   class memory: %d bits\n",
			w, q.Evaluate(test.X, test.Y), q.MemoryBits())
	}
	return nil
}

func cmdFaults(args []string) error {
	fs, ds := newDataset("faults")
	rate := fs.Float64("rate", 0.1, "fraction of the class memory's storage bits flipped (the Fig 5 fault model)")
	bits := fs.Int("bits", 1, "HDC element bitwidth")
	trials := fs.Int("trials", 5, "injection trials")
	fs.Parse(args)
	if !(*rate >= 0 && *rate <= 1) {
		return fmt.Errorf("faults: -rate %v outside [0, 1]", *rate)
	}
	if !bitpack.Width(*bits).Valid() {
		return fmt.Errorf("faults: -bits %d not one of %v", *bits, bitpack.Widths)
	}

	det, test, err := ds.train(cyberhd.DefaultConfig())
	if err != nil {
		return err
	}
	q, err := quantize.FromCore(det.Model, bitpack.Width(*bits))
	if err != nil {
		return err
	}
	clean := q.Evaluate(test.X, test.Y)
	r := rng.New(ds.seed + 1)
	var lossSum float64
	for i := 0; i < *trials; i++ {
		hurt := q.Clone()
		nFlips := faults.InjectQuantizedBits(hurt.Class, *rate, r)
		acc := hurt.Evaluate(test.X, test.Y)
		lossSum += clean - acc
		fmt.Printf("trial %d: %5d bits flipped, accuracy %.4f (clean %.4f)\n",
			i+1, nFlips, acc, clean)
	}
	fmt.Printf("\nmean accuracy loss at %.0f%% error rate, %d-bit: %.2f pp\n",
		100**rate, *bits, 100*lossSum/float64(*trials))
	return nil
}

// serving is the part of a run detect and ingest share: the flags both
// take (registered by newServing alone, so the two cannot drift) and,
// after open, what was built from them. The commands differ only in the
// Stream they pump the source through.
type serving struct {
	cmd                         string // subcommand name: the prefix on its error messages
	trainSessions, liveSessions int
	seed                        uint64
	capture                     string
	batch, width                int
	tick                        float64
	overload                    string
	jsonl, metricsAddr          string
	metricsLinger               float64
	verbose                     bool

	pol       cyberhd.OverloadPolicy // -tenant-rate lands here directly; open sets the mode
	src       cyberhd.PacketSource
	file      *cyberhd.CaptureFile   // src when -capture names a file: closed by close, Skipped reported by finish
	live      *cyberhd.TrafficStream // set for generated traffic: carries ground-truth labels
	sinks     []cyberhd.AlertSink
	jsonlSink *cyberhd.JSONLSink
	jsonlFile *os.File
	jsonlBuf  *bufio.Writer          // jsonlFile's buffer: flushed by finish, and by close on error paths
	metrics   *cyberhd.MetricsServer // the -metrics endpoint, once the command has bound it
}

// newServing starts cmd's flag set with the shared serving flags.
func newServing(cmd string) (*flag.FlagSet, *serving) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	sv := &serving{cmd: cmd}
	fs.IntVar(&sv.trainSessions, "train", 3000, "training capture size (sessions)")
	fs.IntVar(&sv.liveSessions, "sessions", 1000, "live capture size (sessions)")
	fs.Uint64Var(&sv.seed, "seed", 42, "random seed")
	fs.StringVar(&sv.capture, "capture", "", "replay a packet log instead of generating live traffic: a binary capture, or a PCAP or pcapng file through the decode stack (Ethernet/VLAN/IPv4/IPv6) — told apart by magic, streamed in O(1) memory")
	fs.IntVar(&sv.batch, "batch", 0, "micro-batch size per engine (0 = classify per flow)")
	fs.IntVar(&sv.width, "width", 0, "serving width: 0 (float32) or 1 (W1 packed inference); W2–W32 are offline, in quantize and faults")
	fs.Float64Var(&sv.tick, "tick", 1, "auto-tick interval in capture seconds (bounds batched-verdict delay; < 0 disables)")
	fs.StringVar(&sv.overload, "overload", "lossless", "ingress admission policy: lossless (blocking, never drops) or bounded (bounded-latency admission with counted shedding)")
	fs.Float64Var(&sv.pol.TenantRate, "tenant-rate", 0, "bounded mode: cap each tenant (v4 /24 or v6 /48 of the canonical flow key) at this many packets per capture second (0 disables)")
	fs.StringVar(&sv.jsonl, "jsonl", "", "append alerts as JSON lines to this file ('-' = stdout)")
	fs.StringVar(&sv.metricsAddr, "metrics", "", "serve live /metrics (Prometheus), /stats (JSON) and /healthz on this address for the whole run (detect adds the /model control plane; ingest serves the cluster-wide rollup)")
	fs.Float64Var(&sv.metricsLinger, "metrics-linger", 0, "keep the -metrics endpoint up this many seconds after the run (for scrapers that poll final counters)")
	fs.BoolVar(&sv.verbose, "v", false, "print every alert")
	return fs, sv
}

// open validates the shared flags, opens the packet source and builds the
// alert sinks — all before the (slow) training step, so a typo'd flag or
// path fails at once. After a nil return the caller defers close.
func (sv *serving) open() error {
	if err := pipeline.CheckWidth(bitpack.Width(sv.width)); err != nil {
		return fmt.Errorf("%s: -width: %w", sv.cmd, err)
	}
	switch {
	case sv.overload == "bounded":
		sv.pol.Mode = cyberhd.OverloadBounded
	case sv.overload != "lossless":
		return fmt.Errorf("%s: -overload %q not one of lossless, bounded", sv.cmd, sv.overload)
	case sv.pol.TenantRate > 0:
		return fmt.Errorf("%s: -tenant-rate requires -overload bounded (lossless never drops)", sv.cmd)
	}

	// Ingest: an O(1)-memory file replay, or generated live traffic.
	if sv.capture != "" {
		f, err := cyberhd.OpenCapture(sv.capture)
		if err != nil {
			return err
		}
		sv.src, sv.file = f, f
	} else {
		sv.live = cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: sv.liveSessions, Seed: sv.seed + 1})
		sv.src = cyberhd.NewSliceSource(sv.live.Packets)
	}

	// Egress: optional verbose printing and JSONL export ride along as
	// alert sinks.
	if sv.verbose {
		sv.sinks = append(sv.sinks, cyberhd.SinkFunc(func(a cyberhd.Alert) {
			fmt.Printf("ALERT t=%9.2fs %-12s %4d pkts %9.0f bytes\n",
				a.Time, a.ClassName, a.Flow.TotalPackets(), a.Flow.TotalBytes())
		}))
	}
	if sv.jsonl != "" {
		w := io.Writer(os.Stdout)
		if sv.jsonl != "-" {
			f, err := os.Create(sv.jsonl)
			if err != nil {
				sv.close()
				return err
			}
			// A file takes the lines in 64 KiB writes, not one write(2) per
			// alert; stdout stays unbuffered, so a reader sees each alert at once.
			sv.jsonlFile, sv.jsonlBuf = f, bufio.NewWriterSize(f, 64<<10)
			w = sv.jsonlBuf
		}
		sv.jsonlSink = cyberhd.NewJSONLSink(w)
		sv.sinks = append(sv.sinks, sv.jsonlSink)
	}
	return nil
}

// close releases the source file, the JSONL file and the -metrics
// endpoint. The source is only read; the JSONL file's checked flush and
// close are finish's, these the backstop for error returns. Every path
// has closed its stream by then — Runner.Run closes it on every return,
// and ingest's deferred client.Close runs before this one — so no sink
// goroutine still writes into jsonlBuf while it flushes.
func (sv *serving) close() {
	if sv.file != nil {
		sv.file.Close()
	}
	if sv.jsonlFile != nil {
		sv.jsonlBuf.Flush()
		sv.jsonlFile.Close()
	}
	if sv.metrics != nil {
		sv.metrics.Close()
	}
}

// train fits the detector both commands serve.
func (sv *serving) train() (*cyberhd.Detector, error) {
	det, err := cyberhd.TrainDetector(cyberhd.CICIDS2017(sv.trainSessions, sv.seed), cyberhd.DefaultConfig())
	if err == nil {
		fmt.Println("detector:", det)
	}
	return det, err
}

// banner announces the inference width and the overload policy.
func (sv *serving) banner() {
	if sv.width != 0 {
		fmt.Printf("quantized inference: %d-bit packed class memory\n", sv.width)
	}
	switch {
	case sv.pol.Mode != cyberhd.OverloadBounded:
		fmt.Println("overload policy: lossless (blocking ingress, never drops)")
	case sv.pol.TenantRate > 0:
		fmt.Printf("overload policy: bounded (max-wait %v, tenant-rate %g pkt/s per v4 /24 or v6 /48)\n",
			pipeline.DefaultMaxWait, sv.pol.TenantRate)
	default:
		fmt.Printf("overload policy: bounded (max-wait %v)\n", pipeline.DefaultMaxWait)
	}
}

// finish checks the alert export and prints the accounting lines of a
// completed run — byte for byte the same from detect and ingest, which is
// what CI diffs to pin the cluster's bit-identity contract.
func (sv *serving) finish(st cyberhd.EngineStats) error {
	// A failed alert export must fail the run: a truncated JSONL file that
	// exits 0 looks like a successful export to anything scripted on top.
	if sv.jsonlSink != nil {
		if err := sv.jsonlSink.Err(); err != nil {
			return fmt.Errorf("jsonl sink: %w", err)
		}
		if sv.jsonlFile != nil {
			if err := sv.jsonlBuf.Flush(); err != nil {
				return fmt.Errorf("jsonl sink: %w", err)
			}
			if err := sv.jsonlFile.Close(); err != nil {
				return fmt.Errorf("jsonl sink: %w", err)
			}
		}
	}
	fmt.Printf("\nprocessed %d packets -> %d flows, %d alerts\n", st.Packets, st.Flows, st.Alerts)
	if sv.file != nil && sv.file.Skipped() > 0 {
		fmt.Printf("pcap: skipped %d frames outside the decode stack\n", sv.file.Skipped())
	}
	if sv.pol.Mode == cyberhd.OverloadBounded {
		// Always printed in bounded mode (even when zero): the accounting
		// line CI greps, offered = processed + dropped.
		fmt.Printf("dropped %d packets (backpressure=%d new_flow_shed=%d tenant_rate=%d)\n",
			st.DroppedTotal(), st.Dropped[cyberhd.DropBackpressure],
			st.Dropped[cyberhd.DropNewFlowShed], st.Dropped[cyberhd.DropTenantRate])
	}
	return nil
}

// linger runs last, after every report is printed: scrapers polling final
// counters get their window without stalling the operator's output.
func (sv *serving) linger() {
	if sv.metrics != nil && sv.metricsLinger > 0 {
		fmt.Printf("metrics endpoint stays up %.0fs (http://%s/metrics)\n", sv.metricsLinger, sv.metrics.Addr())
		time.Sleep(time.Duration(sv.metricsLinger * float64(time.Second)))
	}
}

func cmdDetect(args []string) error {
	fs, sv := newServing("detect")
	shards := fs.Int("shards", 1, "engine shards (1 = single in-process engine; 0 = one per core)")
	saveModel := fs.String("save-model", "", "write the trained model to this file as a v2 model snapshot, the bytes POST /model takes (no normalizer or class names)")
	progress := fs.Float64("progress", 0, "print a progress line to stderr every N capture seconds (0 disables)")
	fs.Parse(args)
	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	if err := sv.open(); err != nil {
		return err
	}
	defer sv.close()

	// Bind the admin endpoint before the (slow) training step: liveness is
	// answerable immediately, counters read zero until serving starts. The
	// /model control plane mounts lazily — it answers 503 until the
	// detector exists, then hot-swaps in (one atomic pointer store, safe
	// against in-flight requests). CIC-derived detectors label verdicts
	// with the traffic labels.
	var tel *cyberhd.Telemetry
	var planeRoutes atomic.Pointer[http.Handler]
	if sv.metricsAddr != "" {
		tel = cyberhd.NewTelemetry(traffic.LabelNames())
		model := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := planeRoutes.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"model control plane not ready (detector still training)"}`)
		})
		srv, err := cyberhd.ServeMetrics(sv.metricsAddr, tel.Snapshot, map[string]http.Handler{
			"/model": model, "/model/": model,
		})
		if err != nil {
			return err
		}
		sv.metrics = srv
		fmt.Printf("metrics endpoint: http://%s/metrics (also /stats, /healthz, /model)\n", srv.Addr())
	}

	det, err := sv.train()
	if err != nil {
		return err
	}
	k := cyberhd.Kernels()
	fmt.Printf("kernels: float=%s packed=%s\n", k.Float, k.Packed)

	// The control plane serves through a COW wrapper over the trained
	// model so uploads publish atomically against concurrent reads; the
	// snapshot file captures the same publication. The serving width is
	// the model's, chosen here before anything serves or saves it: at
	// -width 1 the detector is packed once, and that W1 model serves and
	// scores.
	var cow *cyberhd.COWModel
	var w1 *quantize.Model
	var tap *cyberhd.ShadowTap
	if *saveModel != "" || sv.metrics != nil {
		cow = cyberhd.NewCOWModel(det.Model)
		if sv.width != 0 {
			w1 = cyberhd.AttachW1(cow)
		}
	} else if sv.width != 0 {
		if w1, err = cyberhd.Quantize(det.Model, cyberhd.Width(sv.width)); err != nil {
			return err
		}
	}
	if *saveModel != "" {
		if err := cyberhd.SaveModelSnapshotFile(*saveModel, cow); err != nil {
			return err
		}
		fmt.Printf("model snapshot: %s (version %d)\n", *saveModel, cow.Version())
	}
	if sv.metrics != nil {
		tap = cyberhd.NewShadowTap()
		plane, err := cyberhd.NewControlPlane(cyberhd.ControlPlaneConfig{
			Model: cow, Width: cyberhd.Width(sv.width), Shadow: tap,
		})
		if err != nil {
			return err
		}
		routes := plane.Handler()
		planeRoutes.Store(&routes)
	}

	// A nil collector or tap is the field's default (private collector, no
	// shadow); a nil *COWModel or *quantize.Model would not be a nil
	// Model, so that field is set to the one there is to serve through.
	cfg := cyberhd.EngineConfig{
		Model: det.Model, Normalizer: det.Normalizer, ClassNames: det.ClassNames,
		BatchSize: sv.batch, Shards: *shards,
		Overload: sv.pol, Sinks: sv.sinks, Telemetry: tel, Shadow: tap,
	}
	switch {
	case cow != nil:
		cfg.Model = cow
	case w1 != nil:
		cfg.Model = w1
	}
	// A count of 1 serves the plain single-core engine.
	if cfg.Shards > 1 {
		fmt.Printf("sharded engine: %d flow-hash shards\n", cfg.Shards)
	}
	sv.banner()

	r, err := cyberhd.NewServeRunner(cfg, sv.src)
	if err != nil {
		return err
	}
	r.TickInterval = sv.tick
	if *progress > 0 {
		r.ProgressInterval = *progress
		r.Progress = func(s cyberhd.TelemetrySnapshot) {
			fmt.Fprintf(os.Stderr, "progress: %d packets, %d flows, %d alerts (%d pending)\n",
				s.Packets, s.Flows, s.Alerts, s.Pending())
		}
	}
	st, err := r.Run(context.Background())
	if err != nil {
		return err
	}
	if err := sv.finish(st); err != nil {
		return err
	}
	if tel != nil {
		s := tel.Snapshot()
		if s.Latency.Count > 0 {
			fmt.Printf("verdict latency (capture time): mean %.3fs over %d verdicts\n",
				s.Latency.Sum/float64(s.Latency.Count), s.Latency.Count)
		}
		fmt.Printf("serving model version: %d\n", cow.Version()) // -metrics always serves through cow
		if s.ShadowFlows > 0 {
			fmt.Printf("shadow serving: %d flows scored, %d diverged from primary\n",
				s.ShadowFlows, s.ShadowDivergedTotal())
		}
	}

	// Score verdicts against ground truth where available (generated
	// traffic only — captures carry no labels), using the same inference
	// the engine served: the W1 model when -width is set.
	if sv.live != nil {
		truth := datasets.FromStream("live", sv.live, det.ClassNames, func(l traffic.Label) int { return int(l) })
		det.Normalizer.Apply(truth)
		predict := det.Model.PredictBatch
		if w1 != nil {
			predict = w1.PredictBatch
		}
		if truth.Len() > 0 {
			conf := metrics.NewConfusion(det.ClassNames)
			conf.AddAll(truth.Y, predict(truth.X))
			fmt.Printf("scored %d labeled flows: accuracy %.4f, detection rate %.4f, false alarms %.4f\n",
				truth.Len(), conf.Accuracy(), conf.DetectionRate(0), conf.FalseAlarmRate(0))
			fmt.Println("\nconfusion matrix:")
			fmt.Print(conf)
		}
	}
	sv.linger()
	return nil
}

// cmdServe runs one cluster detector worker: session configuration and
// model arrive over the wire from the ingest node, so the worker itself
// trains nothing and takes almost no flags.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9301", "TCP listen address for ingest connections")
	quiet := fs.Bool("q", false, "suppress per-session log lines")
	fs.Parse(args)
	cfg := cyberhd.ClusterWorkerConfig{}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	w, err := cyberhd.NewClusterWorker(*listen, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster worker listening on %s\n", w.Addr())
	return w.Serve()
}

// cmdIngest is detect with the local engine swapped for a worker fleet:
// same flags, training, source, sinks and summary lines — only the Stream
// differs, a cluster client fanning the capture out by flow hash.
func cmdIngest(args []string) error {
	fs, sv := newServing("ingest")
	workers := fs.String("workers", "", "comma-separated worker addresses (required)")
	fs.Parse(args)
	fleet := strings.FieldsFunc(*workers, func(r rune) bool { return r == ',' || r == ' ' })
	if len(fleet) == 0 {
		return fmt.Errorf("ingest: -workers required (comma-separated host:port list)")
	}
	if err := sv.open(); err != nil {
		return err
	}
	defer sv.close()

	// Bind the rollup endpoint before the (slow) training step. Counters
	// come from the merged worker telemetry, so the handler reads through
	// an atomic pointer that flips from an empty snapshot to the live
	// cluster once dialed.
	var rollup atomic.Pointer[func() cyberhd.TelemetrySnapshot]
	if sv.metricsAddr != "" {
		srv, err := cyberhd.ServeMetrics(sv.metricsAddr, func() cyberhd.TelemetrySnapshot {
			if snap := rollup.Load(); snap != nil {
				return (*snap)()
			}
			return cyberhd.TelemetrySnapshot{Classes: traffic.LabelNames()}
		}, nil)
		if err != nil {
			return err
		}
		sv.metrics = srv
		fmt.Printf("cluster rollup endpoint: http://%s/metrics (also /stats, /healthz)\n", srv.Addr())
	}

	det, err := sv.train()
	if err != nil {
		return err
	}
	client, err := cyberhd.DialCluster(cyberhd.ClusterConfig{
		Workers:    fleet,
		Model:      cyberhd.NewCOWModel(det.Model),
		Normalizer: det.Normalizer,
		ClassNames: det.ClassNames,
		BatchSize:  sv.batch,
		Width:      cyberhd.Width(sv.width),
		Sinks:      sv.sinks,
	})
	if err != nil {
		return err
	}
	// Every return from here says bye to the fleet; after a completed run
	// the runner has already closed the client and this is a no-op.
	defer client.Close()
	fmt.Printf("cluster: %d workers, flow-hash fan-out\n", len(fleet))
	sv.banner()

	stream, snapshot := gateCluster(client, sv.pol)
	rollup.Store(&snapshot)
	st, err := (&cyberhd.Runner{Stream: stream, Source: sv.src, TickInterval: sv.tick}).Run(context.Background())
	if err != nil {
		return err
	}
	if err := client.Err(); err != nil {
		return fmt.Errorf("cluster transport: %w", err)
	}
	if err := sv.finish(st); err != nil {
		return err
	}
	sent := client.SentPerWorker()
	versions := client.WorkerVersions()
	for i, addr := range client.WorkerAddrs() {
		fmt.Printf("worker %s: %d packets, serving model version %d\n", addr, sent[i], versions[i])
	}
	sv.linger()
	return nil
}

// gateCluster returns the stream ingest runs and the snapshot its rollup
// endpoint serves. In bounded mode the admission gate sits between the
// source and the fan-out stream, exactly where it sits in front of a
// local engine: shed at ingress, before the cluster transport spends
// anything on the packet. The client has no local collector, so the gate
// counts its drops, tenant breakdown and state into its own, which the
// rollup folds in.
func gateCluster(client *cyberhd.ClusterClient, pol cyberhd.OverloadPolicy) (cyberhd.Stream, func() cyberhd.TelemetrySnapshot) {
	if pol.Mode != cyberhd.OverloadBounded {
		return client, client.MergedSnapshot
	}
	gate := cyberhd.NewGate(client, pol)
	return gate, func() cyberhd.TelemetrySnapshot {
		return telemetry.Merge(client.MergedSnapshot(), gate.Telemetry().Snapshot())
	}
}
