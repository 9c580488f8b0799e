package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Prometheus metric names exported by WritePrometheus — the stable scrape
// surface (see the "Layer 5 — observability" section of ARCHITECTURE.md).
const (
	// MetricPackets is the packets-fed counter.
	MetricPackets = "cyberhd_packets_total"
	// MetricFlows is the completed-flows counter.
	MetricFlows = "cyberhd_flows_total"
	// MetricAlerts is the non-benign-verdicts counter.
	MetricAlerts = "cyberhd_alerts_total"
	// MetricSuppressed is the rate-limited-alerts counter.
	MetricSuppressed = "cyberhd_alerts_suppressed_total"
	// MetricVerdicts is the per-class verdict counter (label: class).
	MetricVerdicts = "cyberhd_verdicts_total"
	// MetricLatency is the verdict-latency histogram (capture seconds
	// between flow completion and verdict).
	MetricLatency = "cyberhd_verdict_latency_seconds"
	// MetricKernels is the kernel-dispatch info gauge (labels: float,
	// packed; constant value 1), present once SetKernels has run.
	MetricKernels = "cyberhd_kernel_info"
	// MetricDropped is the admission-gate shed counter (label: reason).
	// Always exported; every reason reads zero in lossless mode.
	MetricDropped = "cyberhd_packets_dropped_total"
	// MetricDroppedByTenant is the per-tenant breakdown of MetricDropped
	// (label: tenant). Bounded cardinality: the top TopTenantDrops tenants
	// plus a fixed tenant="other" series that folds the rest, so a
	// key-churning flood cannot explode the scrape page.
	MetricDroppedByTenant = "cyberhd_packets_dropped_by_tenant_total"
	// MetricOverloadState is the admission gate's state gauge: 0 normal,
	// 1 pressured, 2 shedding.
	MetricOverloadState = "cyberhd_overload_state"
	// MetricOverloadTransitions counts entries into each gate state
	// (label: state), so shedding episodes remain visible after recovery.
	MetricOverloadTransitions = "cyberhd_overload_transitions_total"
	// MetricModelVersion is the serving model's COW publication version
	// gauge (0 when serving an unversioned model) — it moves on hot
	// reloads and shadow promotions.
	MetricModelVersion = "cyberhd_model_version"
	// MetricShadowFlows counts flows also scored by a shadow model.
	MetricShadowFlows = "cyberhd_shadow_flows_total"
	// MetricShadowDiverged counts shadow verdicts disagreeing with the
	// primary, per primary verdict class (label: class).
	MetricShadowDiverged = "cyberhd_shadow_diverged_total"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): plain counters, per-class verdict counters
// labeled class="name", and the verdict-latency histogram with cumulative
// le buckets.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter(MetricPackets, "Packets fed to the detection engine.", s.Packets)
	counter(MetricFlows, "Completed flows handed to classification.", s.Flows)
	counter(MetricAlerts, "Non-benign verdicts.", s.Alerts)
	counter(MetricSuppressed, "Alerts dropped by rate limiting.", s.Suppressed)
	fmt.Fprintf(&b, "# HELP %s Verdicts per class.\n# TYPE %s counter\n", MetricVerdicts, MetricVerdicts)
	for i, n := range s.ByClass {
		fmt.Fprintf(&b, "%s{class=\"%s\"} %d\n", MetricVerdicts, escapeLabel(s.className(i)), n)
	}
	fmt.Fprintf(&b, "# HELP %s Packets refused by the admission gate, by reason.\n# TYPE %s counter\n", MetricDropped, MetricDropped)
	for i, n := range s.Dropped {
		fmt.Fprintf(&b, "%s{reason=\"%s\"} %d\n", MetricDropped, DropReasonNames[i], n)
	}
	fmt.Fprintf(&b, "# HELP %s Packets refused by the admission gate, by tenant (top %d; the rest fold into \"other\").\n# TYPE %s counter\n",
		MetricDroppedByTenant, TopTenantDrops, MetricDroppedByTenant)
	for _, t := range s.DroppedByTenant {
		fmt.Fprintf(&b, "%s{tenant=\"%s\"} %d\n", MetricDroppedByTenant, escapeLabel(t.Label), t.Dropped)
	}
	fmt.Fprintf(&b, "%s{tenant=\"other\"} %d\n", MetricDroppedByTenant, s.DroppedByTenantOther)
	fmt.Fprintf(&b, "# HELP %s Admission gate state: 0 normal, 1 pressured, 2 shedding.\n# TYPE %s gauge\n%s %d\n",
		MetricOverloadState, MetricOverloadState, MetricOverloadState, s.OverloadState)
	fmt.Fprintf(&b, "# HELP %s Entries into each admission gate state.\n# TYPE %s counter\n",
		MetricOverloadTransitions, MetricOverloadTransitions)
	for i, n := range s.OverloadTransitions {
		fmt.Fprintf(&b, "%s{state=\"%s\"} %d\n", MetricOverloadTransitions, OverloadStateNames[i], n)
	}
	fmt.Fprintf(&b, "# HELP %s Serving model COW publication version (0 = unversioned model).\n# TYPE %s gauge\n%s %d\n",
		MetricModelVersion, MetricModelVersion, MetricModelVersion, s.ModelVersion)
	counter(MetricShadowFlows, "Flows also scored by a shadow model.", s.ShadowFlows)
	fmt.Fprintf(&b, "# HELP %s Shadow verdicts diverging from the primary, by primary class.\n# TYPE %s counter\n",
		MetricShadowDiverged, MetricShadowDiverged)
	for i, n := range s.ShadowDiverged {
		fmt.Fprintf(&b, "%s{class=\"%s\"} %d\n", MetricShadowDiverged, escapeLabel(s.className(i)), n)
	}
	fmt.Fprintf(&b, "# HELP %s Capture-time delay between flow completion and verdict.\n# TYPE %s histogram\n",
		MetricLatency, MetricLatency)
	var cum int64
	for i, n := range s.Latency.Counts {
		cum += n
		le := "+Inf"
		if i < len(s.Latency.Bounds) {
			le = formatBound(s.Latency.Bounds[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", MetricLatency, le, cum)
	}
	fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", MetricLatency, s.Latency.Sum, MetricLatency, s.Latency.Count)
	if s.Kernels != (Kernels{}) {
		fmt.Fprintf(&b, "# HELP %s Kernel implementations selected at startup.\n# TYPE %s gauge\n", MetricKernels, MetricKernels)
		fmt.Fprintf(&b, "%s{float=\"%s\",packed=\"%s\"} 1\n",
			MetricKernels, escapeLabel(s.Kernels.Float), escapeLabel(s.Kernels.Packed))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatBound renders a bucket bound without trailing zeros (0.25, 1, 15).
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper rewrites the three bytes the Prometheus exposition format
// escapes in label values. Package-scoped: a Replacer compiles its trie
// once and is safe for concurrent scrapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a Prometheus label value. The exposition format
// permits exactly three escapes — backslash, double quote and newline —
// and takes every other byte literally, so a general-purpose escaper
// like strconv.Quote (which emits \t, \xNN, …) would render the page
// unparseable for class names containing control bytes.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// className labels per-class counter i: the class name when known, a
// positional fallback otherwise — shared by /metrics and /stats so the
// two surfaces can never diverge on the same verdict counter.
func (s Snapshot) className(i int) string {
	if i < len(s.Classes) {
		return s.Classes[i]
	}
	return "class" + strconv.Itoa(i)
}

// statsJSON is the /stats wire shape: the snapshot with per-class counts
// keyed by class name and the histogram as parallel bound/count arrays.
type statsJSON struct {
	Packets       int64            `json:"packets"`
	Flows         int64            `json:"flows"`
	Pending       int64            `json:"pending"`
	Alerts        int64            `json:"alerts"`
	Suppressed    int64            `json:"suppressed"`
	Dropped       map[string]int64 `json:"dropped_by_reason"`
	DroppedTenant map[string]int64 `json:"dropped_by_tenant"`
	DroppedTotal  int64            `json:"dropped_total"`
	OverloadState string           `json:"overload_state"`
	Transitions   map[string]int64 `json:"overload_transitions"`
	ModelVersion  uint64           `json:"model_version"`
	Shadow        shadowJSON       `json:"shadow"`
	ByClass       map[string]int64 `json:"verdicts_by_class"`
	Latency       latencyJSON      `json:"verdict_latency"`
	Kernels       *Kernels         `json:"kernels,omitempty"`
}

// shadowJSON is the shadow-serving corner of /stats.
type shadowJSON struct {
	Flows           int64            `json:"flows"`
	DivergedTotal   int64            `json:"diverged_total"`
	DivergedByClass map[string]int64 `json:"diverged_by_class"`
}

// latencyJSON is the histogram's JSON shape.
type latencyJSON struct {
	Bounds []float64 `json:"bounds_seconds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum_seconds"`
	Count  int64     `json:"count"`
}

// jsonOf flattens a snapshot for /stats.
func jsonOf(s Snapshot) statsJSON {
	by := make(map[string]int64, len(s.ByClass))
	for i, n := range s.ByClass {
		by[s.className(i)] = n
	}
	dropped := make(map[string]int64, NumDropReasons)
	for i, n := range s.Dropped {
		dropped[DropReasonNames[i]] = n
	}
	droppedTenant := make(map[string]int64, len(s.DroppedByTenant)+1)
	for _, t := range s.DroppedByTenant {
		droppedTenant[t.Label] = t.Dropped
	}
	droppedTenant["other"] = s.DroppedByTenantOther
	transitions := make(map[string]int64, len(OverloadStateNames))
	for i, n := range s.OverloadTransitions {
		transitions[OverloadStateNames[i]] = n
	}
	shadowBy := make(map[string]int64, len(s.ShadowDiverged))
	for i, n := range s.ShadowDiverged {
		shadowBy[s.className(i)] = n
	}
	out := statsJSON{
		Packets: s.Packets, Flows: s.Flows, Pending: s.Pending(),
		Alerts: s.Alerts, Suppressed: s.Suppressed,
		Dropped: dropped, DroppedTenant: droppedTenant, DroppedTotal: s.DroppedTotal(),
		OverloadState: s.OverloadStateName(),
		Transitions:   transitions,
		ModelVersion:  s.ModelVersion,
		Shadow: shadowJSON{Flows: s.ShadowFlows,
			DivergedTotal: s.ShadowDivergedTotal(), DivergedByClass: shadowBy},
		ByClass: by,
		Latency: latencyJSON{Bounds: s.Latency.Bounds, Counts: s.Latency.Counts,
			Sum: s.Latency.Sum, Count: s.Latency.Count},
	}
	if s.Kernels != (Kernels{}) {
		k := s.Kernels
		out.Kernels = &k
	}
	return out
}

// Handler serves the admin endpoints from a snapshot source:
//
//	/metrics — Prometheus text exposition format
//	/stats   — the same snapshot as JSON
//	/healthz — 200 "ok" (liveness)
//
// fn is called once per request and must be safe for concurrent use: a
// collector's Snapshot method, or — for a cluster rollup — a function
// that merges the workers' latest snapshots into one fleet-level page.
//
// Each extra pattern/handler pair (nil for none) is registered on the
// same mux, so subsystems like the model control plane (POST /model)
// share the admin endpoint instead of binding a second port. Extra
// patterns must not collide with /metrics, /stats or /healthz (ServeMux
// panics on duplicates, at build time rather than mid-serve).
func Handler(fn func() Snapshot, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = fn().WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(jsonOf(fn()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// Server is a running admin endpoint — bound, serving, and closeable.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe binds addr (host:port; an empty host or port 0 work the
// usual net way) and serves Handler(fn, extra) on it in a background
// goroutine. The returned server is already accepting when this returns
// — read the resolved address from Addr.
func ListenAndServe(addr string, fn func() Snapshot, extra map[string]http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(fn, extra), ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes the listener. In-flight scrapes are
// aborted; the admin surface needs no graceful drain.
func (s *Server) Close() error { return s.srv.Close() }
