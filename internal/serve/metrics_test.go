package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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

	st := getStats(t, ts)
	for _, key := range []string{"vizpower_trace_spans_dropped", "vizpower_fabric_sends_total"} {
		if _, ok := st.Series[key]; !ok {
			t.Errorf("/stats missing %s", key)
		}
	}
}

// stats is the JSON body of GET /stats.
type stats struct {
	Requests int64              `json:"requests"`
	Series   map[string]float64 `json:"series"`
}

func getStats(t *testing.T, ts *httptest.Server) stats {
	t.Helper()
	resp, body := get(t, ts, "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var st stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return st
}

// TestStatsIsTheRegistry: /stats and /metrics are one registry in two
// encodings. After a render and a 429, on a server at rest, every
// /metrics sample but the histogram buckets has a /stats entry of the
// same value and /stats has no other; only the two series that move
// with the clock are exempt from the value check. The 429 is counted
// once, by the admission queue.
func TestStatsIsTheRegistry(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 60, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/render?alg=volren&frame=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d: %s", resp.StatusCode, body)
	}
	// Hold the whole budget and park one admission: the queue is full.
	grant, _, err := s.Admission().Admit(context.Background(), core.PowerSensitive, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if g, _, err := s.Admission().Admit(ctx, core.PowerSensitive, 1e9); err == nil {
			g.Release()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Admission().Stats().Waiting != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("admission never parked")
		}
	}
	const rejected = "vizpower_admission_rejected_total"
	before := getStats(t, ts).Series[rejected]
	if resp, body := get(t, ts, "/render?alg=volren&frame=1"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429: %s", resp.StatusCode, body)
	}
	cancel()
	<-parked
	grant.Release()
	if after := getStats(t, ts).Series[rejected]; after != before+1 {
		t.Errorf("one 429 moved %s from %v to %v, want +1", rejected, before, after)
	}

	exempt := map[string]bool{"vizpower_serve_uptime_seconds": true, "vizpower_admission_avg_watts": true}
	var diffs []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		// A handler observes its latency after the response is sent, and
		// a parking worker adds its idle time late: retry until at rest.
		_, text := get(t, ts, "/metrics")
		st := getStats(t, ts)
		diffs = diffs[:0]
		seen := 0
		for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
			if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			key := line[:i]
			want, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			got, ok := st.Series[key]
			seen++
			if !ok || (got != want && !exempt[key]) {
				diffs = append(diffs, fmt.Sprintf("%s: /metrics %v, /stats %v (present %v)", key, want, got, ok))
			}
		}
		if seen != len(st.Series) {
			diffs = append(diffs, fmt.Sprintf("/metrics has %d non-bucket samples, /stats %d", seen, len(st.Series)))
		}
		if len(diffs) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if _, text := get(t, ts, "/metrics"); strings.Contains(string(text), "vizpower_serve_rejected_total") {
		t.Error("/metrics still counts 429s twice (vizpower_serve_rejected_total)")
	}
}

// TestDocumentedRoutesExist: every localhost:8080/<path> in README.md,
// the Makefile and the verify notes names a route the daemon's mux
// registers. The handlers are looked up, not run.
func TestDocumentedRoutesExist(t *testing.T) {
	mux := testServer(t, Options{}).Handler().(*http.ServeMux)
	route := regexp.MustCompile(`localhost:8080(/[A-Za-z0-9/_.-]*)`)
	seen := 0
	for _, doc := range []string{"../../README.md", "../../Makefile", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range route.FindAllStringSubmatch(string(data), -1) {
			r := httptest.NewRequest(http.MethodGet, m[1], nil)
			if _, pattern := mux.Handler(r); pattern == "" {
				t.Errorf("%s: %s is not a route of the daemon", doc, m[0])
			}
			seen++
		}
	}
	if seen < 10 {
		t.Errorf("found only %d documented routes; is the pattern still right?", seen)
	}
}
