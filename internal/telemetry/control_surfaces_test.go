package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestControlPlaneCounters pins the model-control-plane observability
// surface end to end: the collector's shadow/model-version/transition
// counters, their Prometheus rendering and their /stats JSON shape.
func TestControlPlaneCounters(t *testing.T) {
	c := New([]string{"benign", "dos", "probe"})
	c.SetModelVersion(3)
	c.ShadowVerdict(1, true)
	c.ShadowVerdict(1, true)
	c.ShadowVerdict(2, false)
	c.ShadowVerdict(0, false)
	c.OverloadTransition(1)
	c.OverloadTransition(2)
	c.OverloadTransition(1)
	c.OverloadTransition(0)
	c.OverloadTransition(99) // out of range: ignored, not a panic

	s := c.Snapshot()
	if s.ModelVersion != 3 {
		t.Fatalf("model version %d", s.ModelVersion)
	}
	if s.ShadowFlows != 4 {
		t.Fatalf("shadow flows %d, want 4", s.ShadowFlows)
	}
	if got := s.ShadowDivergedTotal(); got != 2 {
		t.Fatalf("diverged total %d, want 2", got)
	}
	if s.ShadowDiverged[0] != 0 || s.ShadowDiverged[1] != 2 || s.ShadowDiverged[2] != 0 {
		t.Fatalf("diverged by class %v", s.ShadowDiverged)
	}
	if s.OverloadTransitions != [3]int64{1, 2, 1} {
		t.Fatalf("transitions %v", s.OverloadTransitions)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		MetricModelVersion + " 3\n",
		MetricShadowFlows + " 4\n",
		MetricShadowDiverged + `{class="dos"} 2`,
		MetricShadowDiverged + `{class="probe"} 0`,
		MetricOverloadTransitions + `{state="normal"} 1`,
		MetricOverloadTransitions + `{state="pressured"} 2`,
		MetricOverloadTransitions + `{state="shedding"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	srv := httptest.NewServer(Handler(c.Snapshot, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		ModelVersion uint64           `json:"model_version"`
		Transitions  map[string]int64 `json:"overload_transitions"`
		Shadow       struct {
			Flows           int64            `json:"flows"`
			DivergedTotal   int64            `json:"diverged_total"`
			DivergedByClass map[string]int64 `json:"diverged_by_class"`
		} `json:"shadow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ModelVersion != 3 {
		t.Fatalf("stats model_version %d", stats.ModelVersion)
	}
	if stats.Transitions["pressured"] != 2 || stats.Transitions["shedding"] != 1 {
		t.Fatalf("stats transitions %v", stats.Transitions)
	}
	if stats.Shadow.Flows != 4 || stats.Shadow.DivergedTotal != 2 || stats.Shadow.DivergedByClass["dos"] != 2 {
		t.Fatalf("stats shadow %+v", stats.Shadow)
	}
}

// TestHandlerWithExtraRoutes pins Handler's extra-routes contract: extra
// handlers mount on the same mux as the scrape surfaces and cannot
// shadow them.
func TestHandlerWithExtraRoutes(t *testing.T) {
	c := New([]string{"benign"})
	called := false
	h := Handler(c.Snapshot, map[string]http.Handler{
		"/model": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			called = true
			w.WriteHeader(http.StatusOK)
		}),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/healthz", "/stats", "/metrics", "/model"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s answered %d", path, resp.StatusCode)
		}
	}
	if !called {
		t.Fatal("extra route never reached")
	}
}
