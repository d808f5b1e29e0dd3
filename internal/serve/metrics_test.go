package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsEndpoint is the acceptance-criterion parse-back: GET
// /metrics must return valid Prometheus text covering the pool,
// fabric, admission, cache, and governor series.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 200})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Traffic first, so the counters have something to show.
	if resp, body := get(t, ts, "/render?alg=volren&frame=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d: %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	n, err := obs.ValidatePrometheus(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	text := string(body)
	for _, want := range []string{
		// pool
		"vizpower_pool_workers",
		"vizpower_pool_tasks_total",
		"vizpower_pool_chunk_seconds_bucket",
		// fabric
		"vizpower_fabric_sends_total",
		"vizpower_fabric_retries_total",
		// admission
		"vizpower_admission_budget_watts 200",
		"vizpower_admission_admitted_total",
		// cache
		"vizpower_cache_hits_total",
		"vizpower_cache_misses_total",
		// governor (flight-recorder log series)
		"vizpower_governor_log_decisions",
		// request plane
		`vizpower_serve_requests_total{handler="render"} 1`,
		`vizpower_serve_request_seconds_bucket{handler="render",le="+Inf"} 1`,
		"vizpower_serve_energy_joules_total",
		"vizpower_trace_spans_dropped",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestRenderEnergyHeader(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/render?alg=volren")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	j, err := strconv.ParseFloat(resp.Header.Get("X-Energy-Joules"), 64)
	if err != nil || j <= 0 {
		t.Fatalf("X-Energy-Joules = %q (%v), want positive", resp.Header.Get("X-Energy-Joules"), err)
	}
	// The scrape accumulates the same joules.
	_, mbody := get(t, ts, "/metrics")
	if !strings.Contains(string(mbody), "vizpower_serve_energy_joules_total") {
		t.Error("energy counter absent from scrape")
	}
}

func TestDebugGovernorEndpoint(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty until seeded.
	resp, body := get(t, ts, "/debug/governor")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dump struct {
		Decisions []map[string]any `json:"decisions"`
		Dropped   int64            `json:"dropped"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(dump.Decisions) != 0 {
		t.Fatalf("unseeded dump has %d decisions", len(dump.Decisions))
	}
	if !strings.Contains(string(body), `"decisions": []`) {
		t.Errorf("an empty log must encode as [], not null:\n%s", body)
	}

	s.SetGovernorLog([]obs.Decision{
		{TimeSec: 0.5, Cycle: 1, Phase: "simulate", Class: "power sensitive",
			FeedforwardW: 90, OldWatts: 65, NewWatts: 88, Reason: "boundary"},
	}, 2)
	_, body = get(t, ts, "/debug/governor")
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(dump.Decisions) != 1 || dump.Dropped != 2 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump.Decisions[0]["phase"] != "simulate" || dump.Decisions[0]["reason"] != "boundary" {
		t.Errorf("decision fields wrong: %+v", dump.Decisions[0])
	}
}

// TestDebugGovernorSeededFromSweep seeds the log the way serve -govern
// does, from a three-budget calibration sweep. Each budget's run keeps
// its own clock from 0, so the dump must say which run each decision
// came from: one "(startup)" per budget, each carrying its own target,
// and times that never decrease within a target.
func TestDebugGovernorSeededFromSweep(t *testing.T) {
	c := testConfig()
	s := testServer(t, Options{Config: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := c.GovernorCompare(16, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGovernorLog(res.Decisions())
	_, body := get(t, ts, "/debug/governor")
	var dump struct {
		Decisions []obs.Decision `json:"decisions"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), `"target_watts"`) {
		t.Errorf("decisions carry no target_watts:\n%.300s", body)
	}
	startups := map[float64]int{}
	last := map[float64]float64{}
	for i, d := range dump.Decisions {
		if d.Phase == "(startup)" {
			startups[d.TargetWatts]++
		}
		if prev, ok := last[d.TargetWatts]; ok && d.TimeSec < prev {
			t.Errorf("decision %d at %.0f W: t=%.4f after t=%.4f", i, d.TargetWatts, d.TimeSec, prev)
		}
		last[d.TargetWatts] = d.TimeSec
	}
	for _, row := range res.Rows {
		if n := startups[row.BudgetWatts]; n != 1 {
			t.Errorf("%.0f W: %d (startup) decisions, want 1", row.BudgetWatts, n)
		}
	}
	if len(startups) != len(res.Rows) {
		t.Errorf("(startup) targets %v, want one per budget of %d", startups, len(res.Rows))
	}
}

func TestStatsSurfacesDropsAndFabric(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/stats")
	var st struct {
		SpansDropped *int64 `json:"spans_dropped"`
		Fabric       *struct {
			Sends int64 `json:"sends"`
		} `json:"fabric"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if st.SpansDropped == nil {
		t.Error("/stats missing spans_dropped")
	}
	if st.Fabric == nil {
		t.Error("/stats missing fabric")
	}
}
