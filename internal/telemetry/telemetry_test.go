package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCollectorCounters(t *testing.T) {
	c := New([]string{"benign", "dos", "scan"})
	c.AddPackets(10)
	c.AddPackets(5)
	c.FlowCompleted()
	c.FlowCompleted()
	c.Verdict(0, false, 0)
	c.Verdict(1, true, 0.3)
	c.AddSuppressed(4)
	s := c.Snapshot()
	if s.Packets != 15 || s.Flows != 2 || s.Alerts != 1 || s.Suppressed != 4 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.ByClass[0] != 1 || s.ByClass[1] != 1 || s.ByClass[2] != 0 {
		t.Fatalf("by-class %v", s.ByClass)
	}
	if s.Latency.Count != 2 {
		t.Fatalf("latency count %d", s.Latency.Count)
	}
	if math.Abs(s.Latency.Sum-0.3) > 1e-6 {
		t.Fatalf("latency sum %v", s.Latency.Sum)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d", s.Pending())
	}
	c.FlowCompleted()
	if p := c.Snapshot().Pending(); p != 1 {
		t.Fatalf("pending after unverdicted flow = %d", p)
	}
}

func TestCollectorVerdictDefensive(t *testing.T) {
	c := New([]string{"a"})
	c.Verdict(-1, true, math.NaN()) // out of range + NaN: counted as alert only
	c.Verdict(99, false, math.Inf(1))
	s := c.Snapshot()
	if s.ByClass[0] != 0 || s.Alerts != 1 || s.Latency.Count != 0 {
		t.Fatalf("defensive verdict: %+v", s)
	}
	c.ObserveLatency(-5) // clamps to zero, lands in the first bucket
	s = c.Snapshot()
	if s.Latency.Counts[0] != 1 || s.Latency.Sum != 0 {
		t.Fatalf("negative latency: %+v", s.Latency)
	}
}

func TestLatencyBucketing(t *testing.T) {
	c := New(nil)
	// One observation exactly on each bound (inclusive: le semantics),
	// plus one beyond the last bound into +Inf.
	for _, b := range LatencyBuckets {
		c.ObserveLatency(b)
	}
	c.ObserveLatency(LatencyBuckets[len(LatencyBuckets)-1] + 1)
	s := c.Snapshot()
	for i, n := range s.Latency.Counts {
		if n != 1 {
			t.Fatalf("bucket %d count %d, want 1 (counts %v)", i, n, s.Latency.Counts)
		}
	}
	if s.Latency.Count != int64(NumLatencyBuckets) {
		t.Fatalf("total %d", s.Latency.Count)
	}
}

// TestLatencySumSaturates: capture times are any float64 (a flow done at
// t=2 may classify at 1e300), so one wait, or a total, can pass an int64
// of microseconds. Either pins the sum at math.MaxInt64 µs, never wraps.
func TestLatencySumSaturates(t *testing.T) {
	for _, obs := range [][]float64{{1e300 - 2}, {9e12, 9e12}, {9e12, 9e12, 1, 9e12}} {
		c := New(nil)
		for _, v := range obs {
			c.ObserveLatency(v)
		}
		if got := c.Snapshot().Latency.Sum; got != float64(math.MaxInt64)/1e6 {
			t.Errorf("%v: latency sum %g, want it saturated", obs, got)
		}
	}
}

func TestCollectorHotPathAllocFree(t *testing.T) {
	c := New([]string{"benign", "dos"})
	allocs := testing.AllocsPerRun(1000, func() {
		c.AddPackets(1)
		c.FlowCompleted()
		c.Verdict(1, true, 0.42)
		c.AddSuppressed(1)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.2f objects per flow", allocs)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := New([]string{"benign", "dos"})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddPackets(1)
				c.FlowCompleted()
				c.Verdict(i%2, i%2 != 0, float64(i%3))
				_ = c.Snapshot() // snapshots race against writes by design
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Packets != workers*per || s.Flows != workers*per {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.ByClass[0]+s.ByClass[1] != workers*per || s.Alerts != workers*per/2 {
		t.Fatalf("verdicts: %+v", s)
	}
	if s.Latency.Count != workers*per {
		t.Fatalf("latency count %d", s.Latency.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := New([]string{"benign", `we"ird\class`, "tab\tname"})
	c.AddPackets(7)
	c.FlowCompleted()
	c.Verdict(1, true, 0.3)
	var b strings.Builder
	if err := c.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cyberhd_packets_total 7\n",
		"cyberhd_flows_total 1\n",
		"cyberhd_alerts_total 1\n",
		`cyberhd_verdicts_total{class="benign"} 0`,
		`cyberhd_verdicts_total{class="we\"ird\\class"} 1`,
		// Only \, " and newline are escaped; a tab stays a literal byte —
		// strconv-style \t would make the page unparseable.
		"cyberhd_verdicts_total{class=\"tab\tname\"} 0",
		`cyberhd_verdict_latency_seconds_bucket{le="+Inf"} 1`,
		"cyberhd_verdict_latency_seconds_count 1\n",
		"# TYPE cyberhd_verdict_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Histogram buckets are cumulative: the 0.5 bucket already includes
	// the 0.3 observation.
	if !strings.Contains(out, `cyberhd_verdict_latency_seconds_bucket{le="0.5"} 1`) {
		t.Fatalf("0.3 s observation missing from le=0.5 bucket:\n%s", out)
	}
	if !strings.Contains(out, `cyberhd_verdict_latency_seconds_bucket{le="0.25"} 0`) {
		t.Fatalf("0.3 s observation leaked into le=0.25 bucket:\n%s", out)
	}
	// Every non-comment line is "name{labels} value": the value after the
	// last space must be numeric (label values may contain whitespace).
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("non-numeric value in line %q", line)
		}
	}
}

// TestKernelsReport pins the dispatch-report plumbing: absent until
// SetKernels, then present in snapshots, /metrics (as a 2-field info
// gauge) and /stats (as a "kernels" object).
func TestKernelsReport(t *testing.T) {
	c := New([]string{"benign"})
	var b strings.Builder
	if err := c.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), MetricKernels) {
		t.Fatalf("kernel info emitted before SetKernels:\n%s", b.String())
	}
	c.SetKernels(Kernels{Float: "avx2", Packed: "popcnt-swar"})
	s := c.Snapshot()
	if s.Kernels.Float != "avx2" || s.Kernels.Packed != "popcnt-swar" {
		t.Fatalf("snapshot kernels = %+v", s.Kernels)
	}
	b.Reset()
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	line := `cyberhd_kernel_info{float="avx2",packed="popcnt-swar"} 1`
	if !strings.Contains(b.String(), line) {
		t.Fatalf("missing %q in:\n%s", line, b.String())
	}
	js, err := json.Marshal(jsonOf(s))
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kernels":{"float":"avx2","packed":"popcnt-swar"}`; !strings.Contains(string(js), want) {
		t.Fatalf("missing %q in /stats JSON:\n%s", want, js)
	}
}

func TestServerEndpoints(t *testing.T) {
	c := New([]string{"benign", "dos"})
	c.AddPackets(3)
	c.FlowCompleted()
	c.Verdict(1, true, 0.1)
	srv, err := ListenAndServe("127.0.0.1:0", c.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "cyberhd_packets_total 3") {
		t.Fatalf("/metrics missing packets:\n%s", body)
	}
	body, ct = get("/stats")
	if ct != "application/json" {
		t.Fatalf("/stats content type %q", ct)
	}
	var st struct {
		Packets int64            `json:"packets"`
		ByClass map[string]int64 `json:"verdicts_by_class"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, body)
	}
	if st.Packets != 3 || st.ByClass["dos"] != 1 {
		t.Fatalf("/stats = %+v", st)
	}
}

// TestDroppedCounters pins the overload accounting surface: per-reason
// drop counters, their total, and the overload-state gauge, through
// Snapshot and both export formats.
func TestDroppedCounters(t *testing.T) {
	c := New([]string{"benign", "dos"})
	c.AddDropped(DropBackpressure, 3)
	c.AddDropped(DropNewFlowShed, 2)
	c.AddDropped(DropTenantRate, 1)
	c.AddDropped(DropReason(200), 9) // out of range: ignored, not a panic
	c.SetOverloadState(2)

	s := c.Snapshot()
	if s.Dropped[DropBackpressure] != 3 || s.Dropped[DropNewFlowShed] != 2 || s.Dropped[DropTenantRate] != 1 {
		t.Fatalf("Dropped = %v", s.Dropped)
	}
	if s.DroppedTotal() != 6 {
		t.Fatalf("DroppedTotal = %d, want 6", s.DroppedTotal())
	}
	if s.OverloadStateName() != "shedding" {
		t.Fatalf("OverloadStateName = %q, want shedding", s.OverloadStateName())
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cyberhd_packets_dropped_total{reason="backpressure"} 3`,
		`cyberhd_packets_dropped_total{reason="new_flow_shed"} 2`,
		`cyberhd_packets_dropped_total{reason="tenant_rate"} 1`,
		"cyberhd_overload_state 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestDropReasonNames pins the reason/state label vocabulary the CLI,
// the Prometheus page and the JSON stats all share.
func TestDropReasonNames(t *testing.T) {
	want := []string{"backpressure", "new_flow_shed", "tenant_rate"}
	for r, name := range DropReasonNames {
		if name != want[r] {
			t.Fatalf("DropReasonNames[%d] = %q, want %q", r, name, want[r])
		}
		if got := DropReason(r).String(); got != want[r] {
			t.Fatalf("DropReason(%d).String() = %q", r, got)
		}
	}
	if got := DropReason(200).String(); got != "unknown" {
		t.Fatalf("out-of-range reason String = %q, want unknown", got)
	}
	if got := [...]string{"normal", "pressured", "shedding"}; got != OverloadStateNames {
		t.Fatalf("OverloadStateNames = %v", OverloadStateNames)
	}
}
