package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"cyberhd/internal/netflow"
)

// inputDigest hashes everything generate hands the program under test.
func inputDigest(t *testing.T, w *workload, seed uint64) uint64 {
	t.Helper()
	in, err := w.generate(seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var rec [netflow.PacketRecordSizeV2]byte
	for i := range in.Packets {
		netflow.EncodePacketRecordV2(rec[:], &in.Packets[i])
		h.Write(rec[:])
	}
	h.Write(in.PCAP)
	if in.Dataset != nil {
		var b [4]byte
		for _, v := range in.Dataset.X.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := inputDigest(t, w, 7), inputDigest(t, w, 7), inputDigest(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

func TestQuantileHelpers(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartilesSorted(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartilesSorted(ten[:5]); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{9, 1, 5, 3}); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if s := summarize("ms", hundred); s.HiPct != 90 || s.N != 100 || s.Median != 49.5 {
		t.Errorf("100 samples summarize to %+v; want p90 and median 49.5", s)
	}
	if s := summarize("ms", hundred[:99]); s.HiPct != 0 {
		t.Errorf("99 samples report p%v; none has ten samples beyond it", s.HiPct)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the code's
// workload and metric tables the same list, inside the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range file.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the code %s [%s] %s", kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json and code must agree and lie in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	setup := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the last end-to-end metric must be setup_s [s] lower, got %+v", setup)
	}
}

// TestQuickSmoke runs all five workloads at smoke size, both runs, through
// the command's own entry point, and checks the contract line.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", workloads[i].Name, "--quick", "--seed", "3", "--seconds", "1",
				"--trace", traced, "--outdir", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", workloads[i].Name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", workloads[i].Name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", workloads[i].Name, traced,
					line.Correct, line.Attempted, line.Failed, stdout.String())
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, catalogue has %d", workloads[i].Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s [%s] missing or in another unit (%q)", workloads[i].Name, traced, d.Name, d.Unit, m.Unit)
				}
			}
		}
		for _, f := range []string{"trace-" + workloads[i].Name + ".jsonl", workloads[i].Name + ".cpu.pprof"} {
			if st, err := os.Stat(out + "/" + f); err != nil || st.Size() == 0 {
				t.Errorf("traced run left no %s", f)
			}
		}
	}
}

// TestWrongReferenceFailsEveryPass drives the failed-pass path: against a
// deliberately wrong reference every pass must count as failed.
func TestWrongReferenceFailsEveryPass(t *testing.T) {
	for _, name := range []string{"serve_bulk", "cluster_loopback"} {
		w, _ := workloadByName(name)
		res, err := runWorkload(w, options{Seed: 3, Seconds: 1, Quick: true, OutDir: t.TempDir(), breakReference: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 || len(res.Failures) == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d failures=%v; want every pass failed", name,
				res.Correct, res.Failed, res.Attempted, res.Failures)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(pkts, spreadShare float64, runs int) side {
		s := side{}
		for _, w := range workloads {
			s[w.Name] = map[string][]summary{}
			for _, d := range endToEnd {
				for r := 0; r < runs; r++ {
					v := 1.0
					if d.Name == "pkts_per_s" {
						// run medians spaced so their quartile distance is spreadShare
						v = pkts * (1 + spreadShare*(float64(r)/float64(runs-1)-0.5)*2)
					}
					s[w.Name][d.Name] = append(s[w.Name][d.Name], summary{Unit: d.Unit, N: 50, Median: v, Q1: v, Q3: v})
				}
			}
		}
		return s
	}
	var out bytes.Buffer
	if code := compareSides(mk(100, 0.01, 5), mk(99, 0.01, 5), &out); code != 0 {
		t.Errorf("a 1%% drop is inside the bound and must be ok:\n%s", out.String())
	}
	out.Reset()
	if code := compareSides(mk(100, 0.01, 5), mk(60, 0.01, 5), &out); code == 0 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 40%% drop must be regressed:\n%s", out.String())
	}
	out.Reset()
	if code := compareSides(mk(100, 0.6, 5), mk(100, 0.6, 5), &out); code == 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved:\n%s", out.String())
	}
}
