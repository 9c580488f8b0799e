package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cyberhd"
	"cyberhd/internal/netflow"
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
// the same names with the same defaults on both commands, and exactly the
// set the CLI shipped with.
func TestSharedServingFlags(t *testing.T) {
	want := map[string]string{
		"train": "3000", "sessions": "1000", "seed": "42", "capture": "", "pcap": "",
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

// TestSourceErrorsPrecedeTraining pins the ordering fix: contradictory or
// typo'd source flags fail with the command's own prefix before any
// training (or dialing) has happened.
func TestSourceErrorsPrecedeTraining(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such.cap")
	for name, cmd := range map[string]func([]string) error{"detect": cmdDetect, "ingest": cmdIngest} {
		for _, tc := range []struct {
			args    []string
			wantErr string
		}{
			{[]string{"-capture", "x.cap", "-pcap", "y.pcap"}, name + ": -capture and -pcap are mutually exclusive"},
			{[]string{"-capture", missing}, "no-such.cap"},
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
}

// TestDetectAndIngestPrintTheSameAccounting runs one small capture through
// detect and through ingest against two in-process workers, bounded mode
// with tenant policing on, and requires string-equal `processed` and
// `dropped` lines — the CLI form of the cluster bit-identity contract.
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
}
