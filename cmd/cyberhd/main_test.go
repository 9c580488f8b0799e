package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cyberhd"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = old
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestSharedServingFlags pins the flag surface detect and ingest share:
// the same names with the same defaults on both commands, and exactly
// this set — -capture replays every container, so there is no -pcap.
func TestSharedServingFlags(t *testing.T) {
	want := map[string]string{
		"train": "3000", "sessions": "1000", "seed": "42", "capture": "",
		"batch": "0", "width": "0", "tick": "1", "overload": "lossless", "tenant-rate": "0",
		"jsonl": "", "metrics": "", "metrics-linger": "0", "v": "false",
	}
	for _, cmd := range []string{"detect", "ingest"} {
		fs, _ := newServing(cmd)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if len(got) != len(want) {
			t.Errorf("%s: %d shared flags, want %d: %v", cmd, len(got), len(want), got)
		}
		for name, def := range want {
			if d, ok := got[name]; !ok || d != def {
				t.Errorf("%s: -%s default %q (present %v), want %q", cmd, name, d, ok, def)
			}
		}
	}
}

// TestSharedDatasetFlags pins the dataset flags gen, train, quantize and
// faults take from newDataset: the names and defaults each command
// declared for itself before the four were folded.
func TestSharedDatasetFlags(t *testing.T) {
	for cmd, want := range map[string]map[string]string{
		"gen":      {"dataset": "nsl-kdd", "n": "10000", "seed": "42"},
		"train":    {"in": "", "dataset": "nsl-kdd", "n": "8000", "seed": "42"},
		"quantize": {"in": "", "dataset": "nsl-kdd", "n": "8000", "seed": "42"},
		"faults":   {"in": "", "dataset": "nsl-kdd", "n": "8000", "seed": "42"},
	} {
		fs, _ := newDataset(cmd)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: dataset flags %v, want %v", cmd, got, want)
		}
	}
}

// TestSourceErrorsPrecedeTraining pins the ordering fix: a source file
// that is missing or in no known container fails, naming the file, before
// any training (or dialing) has happened, and so does a -width no engine
// serves. So does a faults -rate outside [0, 1] (NaN included, which used
// to panic in the injector) or a -bits that is no width.
func TestSourceErrorsPrecedeTraining(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such.cap")
	unknown := filepath.Join(t.TempDir(), "unknown.bin")
	if err := os.WriteFile(unknown, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, cmd := range map[string]func([]string) error{"detect": cmdDetect, "ingest": cmdIngest} {
		for _, tc := range []struct {
			args    []string
			wantErr string
		}{
			{[]string{"-capture", unknown}, "unknown.bin: netflow: not a pcap or pcapng capture (magic deadbeef)"},
			{[]string{"-capture", missing}, "no-such.cap"},
			{[]string{"-width", "8"}, pipeline.CheckWidth(8).Error()},
		} {
			args := tc.args
			if name == "ingest" {
				// Nothing listens here: reaching Dial would fail differently.
				args = append(args, "-workers", "127.0.0.1:1")
			}
			out, err := captureStdout(t, func() error { return cmd(args) })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s %v: err = %v, want %q", name, args, err, tc.wantErr)
			}
			if out != "" {
				t.Errorf("%s %v printed before failing:\n%s", name, args, out)
			}
		}
	}
	for _, args := range [][]string{{"-rate", "NaN"}, {"-rate", "-Inf"}, {"-rate", "1.5"}, {"-bits", "3"}} {
		out, err := captureStdout(t, func() error { return cmdFaults(args) })
		if err == nil || !strings.Contains(err.Error(), args[0]+" "+args[1]) || out != "" {
			t.Errorf("faults %v: err = %v after printing %q, want an error naming the flag before training", args, err, out)
		}
	}
}

// TestDetectReplaysCaptureAndPcapAlike is the pcap-smoke contract
// in-process: one mixed v4/v6, VLAN-tagged workload written as a binary
// capture and as a PCAP, both replayed with -capture, must print
// string-equal `processed` lines and no `pcap: skipped` line, and export
// through -jsonl one decodable line per counted alert, the same multiset
// from both (which pins the file's buffer flush). An export that cannot
// be written fails the run.
func TestDetectReplaysCaptureAndPcapAlike(t *testing.T) {
	live := cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: 120, Seed: 9})
	for i := range live.Packets {
		p := &live.Packets[i]
		// Both directions of a flow see the same XOR, so a flow moves to
		// IPv6 whole; the header grows by the 20 bytes v6 adds.
		if (p.SrcIP.V4()^p.DstIP.V4())&1 == 1 {
			for _, a := range []*netflow.Addr{&p.SrcIP, &p.DstIP} {
				v := a.V4()
				*a = netflow.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 12: byte(v >> 24), 13: byte(v >> 16), 14: byte(v >> 8), 15: byte(v)})
			}
			p.HeaderLen += 20
			p.Length += 20
		}
		p.VLAN = 42
		p.Time = netflow.RoundToNanos(p.Time)
	}
	dir := t.TempDir()
	capture, pcap := filepath.Join(dir, "mix.cap"), filepath.Join(dir, "mix.pcap")
	if err := netflow.SaveCapture(capture, live.Packets); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(pcap)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WritePCAP(f, live.Packets); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^processed [1-9]\d* packets -> [1-9]\d* flows, ([1-9]\d*) alerts$`)
	var lines []string
	var exports [][]string
	for i, path := range []string{capture, pcap} {
		jsonl := filepath.Join(dir, fmt.Sprintf("alerts%d.jsonl", i))
		out, err := captureStdout(t, func() error { return cmdDetect([]string{"-train", "300", "-capture", path, "-jsonl", jsonl}) })
		if err != nil {
			t.Fatalf("detect -capture %s: %v\n%s", path, err, out)
		}
		if strings.Contains(out, "pcap: skipped") {
			t.Errorf("detect -capture %s skipped frames of a faithful round trip:\n%s", path, out)
		}
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("detect -capture %s printed no processed line with alerts:\n%s", path, out)
		}
		lines = append(lines, m[0])
		data, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		recs := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if fmt.Sprint(len(recs)) != m[1] {
			t.Fatalf("detect -capture %s: %d JSONL lines for %s alerts", path, len(recs), m[1])
		}
		for _, r := range recs {
			var rec pipeline.AlertRecord
			if err := json.Unmarshal([]byte(r), &rec); err != nil {
				t.Fatalf("detect -capture %s: JSONL line %q: %v", path, r, err)
			}
		}
		slices.Sort(recs)
		exports = append(exports, recs)
	}
	if lines[0] != lines[1] {
		t.Errorf("processed line diverged:\n  capture: %q\n  pcap:    %q", lines[0], lines[1])
	}
	if !slices.Equal(exports[0], exports[1]) {
		t.Errorf("sorted JSONL exports diverged between the capture and the pcap replay")
	}

	t.Run("unwritable jsonl fails the run", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full here")
		}
		out, err := captureStdout(t, func() error { return cmdDetect([]string{"-train", "300", "-capture", capture, "-jsonl", "/dev/full"}) })
		if err == nil || !strings.Contains(err.Error(), "jsonl") {
			t.Fatalf("detect -jsonl /dev/full: err = %v, want the jsonl export named\n%s", err, out)
		}
	})
}

// TestDetectAndIngestPrintTheSameAccounting runs one small capture through
// detect and through ingest against two in-process workers, bounded mode
// with tenant policing on, and requires string-equal `processed` and
// `dropped` lines — the CLI form of the cluster bit-identity contract —
// and an ingest rollup whose tenant_rate counter matches the line.
func TestDetectAndIngestPrintTheSameAccounting(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "small.cap")
	live := cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: 150, Seed: 5})
	if err := netflow.SaveCapture(capture, live.Packets); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := cyberhd.NewClusterWorker("127.0.0.1:0", cyberhd.ClusterWorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	shared := []string{"-train", "300", "-capture", capture, "-batch", "16", "-overload", "bounded", "-tenant-rate", "40"}
	detect, err := captureStdout(t, func() error { return cmdDetect(shared) })
	if err != nil {
		t.Fatalf("detect: %v\n%s", err, detect)
	}
	ingest, err := captureStdout(t, func() error {
		return cmdIngest(append([]string{"-workers", strings.Join(addrs, ",")}, shared...))
	})
	if err != nil {
		t.Fatalf("ingest: %v\n%s", err, ingest)
	}
	for _, line := range []string{`(?m)^processed [1-9]\d* packets -> [1-9]\d* flows, \d+ alerts$`, `(?m)^dropped [1-9]\d* packets \(.*\)$`} {
		re := regexp.MustCompile(line)
		d, i := re.FindString(detect), re.FindString(ingest)
		if d == "" || d != i {
			t.Errorf("accounting line diverged:\n  detect: %q\n  ingest: %q", d, i)
		}
	}

	// The rollup endpoint counts the gate's drops: the same run through the
	// stream and snapshot ingest builds reports the summary line's
	// tenant_rate count.
	fs, sv := newServing("ingest")
	fs.Parse(shared)
	if err := sv.open(); err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	var det *cyberhd.Detector
	if out, err := captureStdout(t, func() (err error) { det, err = sv.train(); return err }); err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}
	client, err := cyberhd.DialCluster(cyberhd.ClusterConfig{
		Workers: addrs, Model: cyberhd.NewCOWModel(det.Model),
		Normalizer: det.Normalizer, ClassNames: det.ClassNames, BatchSize: sv.batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stream, rollup := gateCluster(client, sv.pol)
	st, err := (&cyberhd.Runner{Stream: stream, Source: sv.src, TickInterval: sv.tick}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := rollup().Dropped[cyberhd.DropTenantRate]
	summary := regexp.MustCompile(`tenant_rate=(\d+)\)`).FindStringSubmatch(ingest)
	if got == 0 || got != int64(st.Dropped[cyberhd.DropTenantRate]) || summary == nil || fmt.Sprint(got) != summary[1] {
		t.Errorf("rollup tenant_rate = %d, want the run's %d and the summary line's %v, nonzero",
			got, st.Dropped[cyberhd.DropTenantRate], summary)
	}
}

// TestQuantizeAndFaultsScoreTheHeldOutSplit pins which rows quantize and
// faults evaluate on: the split the detector was trained against at -seed,
// under the detector's own normalizer — so the float32 line of quantize is
// the detector's TestAccuracy, and faults' clean accuracy is quantize's
// line at the same width. Both used to train at seed 1 and score a -seed
// split that was three quarters training rows.
func TestQuantizeAndFaultsScoreTheHeldOutSplit(t *testing.T) {
	for _, seed := range []string{"42", "7"} {
		args := []string{"-dataset", "nsl-kdd", "-n", "1500", "-seed", seed}
		out, err := captureStdout(t, func() error { return cmdQuantize(args) })
		if err != nil {
			t.Fatalf("quantize: %v\n%s", err, out)
		}
		fs, ds := newDataset("quantize")
		fs.Parse(args)
		det, _, err := ds.train(cyberhd.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("float32 accuracy: %.4f ", det.TestAccuracy); !strings.HasPrefix(out, want) {
			t.Errorf("-seed %s: quantize printed %q, want the detector's TestAccuracy %q",
				seed, strings.SplitN(out, "\n", 2)[0], want)
		}
		oneBit := regexp.MustCompile(`(?m)^ 1-bit accuracy:  (\d\.\d{4}) `).FindStringSubmatch(out)
		out, err = captureStdout(t, func() error { return cmdFaults(append(args, "-bits", "1", "-trials", "1")) })
		if err != nil {
			t.Fatalf("faults: %v\n%s", err, out)
		}
		if oneBit == nil || !strings.Contains(out, "(clean "+oneBit[1]+")") {
			t.Errorf("-seed %s: faults' clean accuracy is not quantize's 1-bit line %v:\n%s", seed, oneBit, out)
		}
	}
}
