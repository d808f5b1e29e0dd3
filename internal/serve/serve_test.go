package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/render"
	"repro/internal/study"
	"repro/internal/viz"
)

// testConfig is a small, fast study configuration.
func testConfig() *harness.Config {
	return &harness.Config{
		Sizes: []int{16}, PhaseSize: 16, MaxSimSize: 16, SimTime: 0.05,
		Images: 8, ImageSize: 32,
		Particles: 64, ParticleSteps: 100,
	}
}

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Config == nil {
		opts.Config = testConfig()
	}
	if opts.CinemaDir == "" {
		opts.CinemaDir = t.TempDir()
	}
	s := New(opts)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

// TestRenderSingleFlightBuild floods the daemon with concurrent requests
// for the same (dataset, transfer function) key and asserts the derived
// structure was built exactly once: one miss for the dataset, one for
// the renderer, everything else hits or joins the in-flight build.
func TestRenderSingleFlightBuild(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, ts, "/render?alg=volren&frame=2")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	st := s.Cache().Stats()
	// Exactly two builds ran: dataset/16 and volren/16/tr0.
	if st.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one dataset build, one renderer build); stats %+v", st.Misses, st)
	}
	if st.Hits+st.Waits != clients-1 {
		t.Errorf("hits+waits = %d, want %d; stats %+v", st.Hits+st.Waits, clients-1, st)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d frame differs from client 0", i)
		}
	}
}

// TestRenderWarmBitIdentical takes one orbit frame of each algorithm by
// every route to it — /render cold, /render warm, the PNG a /cinema
// segment wrote for that frame, and harness.Frames + render.OrbitView
// called directly outside the daemon — and requires all four
// byte-identical: the cache and the route may change cost, never pixels.
func TestRenderWarmBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		alg, name string
		frame     int
	}{
		{"volren", "Volume Rendering", 3},
		{"raytrace", "Ray Tracing", 5},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			cfg := testConfig()
			s := testServer(t, Options{Config: cfg})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			path := fmt.Sprintf("/render?alg=%s&frame=%d", tc.alg, tc.frame)
			respCold, cold := get(t, ts, path)
			if respCold.StatusCode != http.StatusOK {
				t.Fatalf("cold: status %d: %s", respCold.StatusCode, cold)
			}
			if v := respCold.Header.Get("X-Serve-Cache"); v != "miss" {
				t.Errorf("cold X-Serve-Cache = %q, want miss", v)
			}
			respWarm, warm := get(t, ts, path)
			if respWarm.StatusCode != http.StatusOK {
				t.Fatalf("warm: status %d", respWarm.StatusCode)
			}
			if v := respWarm.Header.Get("X-Serve-Cache"); v != "hit" {
				t.Errorf("warm X-Serve-Cache = %q, want hit", v)
			}
			if !bytes.Equal(cold, warm) {
				t.Fatal("warm frame differs from cold frame")
			}
			// The paper's spelling of the algorithm is the same frame from
			// the same cache entry.
			spelled := fmt.Sprintf("/render?alg=%s&frame=%d", strings.ReplaceAll(tc.name, " ", "%20"), tc.frame)
			respSpelled, byName := get(t, ts, spelled)
			if v := respSpelled.Header.Get("X-Serve-Cache"); respSpelled.StatusCode != http.StatusOK || v != "hit" {
				t.Errorf("%s: status %d, X-Serve-Cache = %q, want 200 and hit", spelled, respSpelled.StatusCode, v)
			}
			if !bytes.Equal(cold, byName) {
				t.Errorf("%s differs from %s", spelled, path)
			}

			// The segment [frame-1, frame+1); its second file is the frame.
			resp, body := get(t, ts, fmt.Sprintf("/cinema?alg=%s&from=%d&count=2", tc.alg, tc.frame-1))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cinema: status %d: %s", resp.StatusCode, body)
			}
			var seg cinemaResponse
			if err := json.Unmarshal(body, &seg); err != nil {
				t.Fatalf("cinema response: %v", err)
			}
			// Frames encode on the database's queue; Close drains it.
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			stored, err := os.ReadFile(filepath.Join(seg.Dir, seg.Frames[1]))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, stored) {
				t.Fatalf("cinema frame %s differs from the served frame", seg.Frames[1])
			}

			g, err := cfg.Dataset(cfg.PhaseSize)
			if err != nil {
				t.Fatal(err)
			}
			ex := viz.NewExec(cfg.Pool)
			frame, err := harness.Frames(g, tc.name, 0, ex)
			if err != nil {
				t.Fatal(err)
			}
			cam, _ := render.OrbitView(g.Bounds(), tc.frame, cfg.Images)
			var direct bytes.Buffer
			if err := frame(nil, cam, cfg.ImageSize, cfg.ImageSize, ex).WritePNG(&direct); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, direct.Bytes()) {
				t.Fatal("served frame differs from harness.Frames + render.OrbitView")
			}
		})
	}
}

// TestTransparentQuantized pins the structure cache's bound under a client
// that sweeps the raw transparent float: the value is rounded to the
// nearest 1/256 where it is parsed, so near-equal values share one
// renderer and a size holds at most 257 of them.
func TestTransparentQuantized(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	respA, a := get(t, ts, "/render?alg=volren&transparent=0.25")
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", respA.StatusCode, a)
	}
	respB, b := get(t, ts, "/render?alg=volren&transparent=0.2501")
	if v := respB.Header.Get("X-Serve-Cache"); v != "hit" {
		t.Errorf("transparent=0.2501 after 0.25: X-Serve-Cache = %q, want hit (one key)", v)
	}
	if !bytes.Equal(a, b) {
		t.Error("transparent=0.2501 rendered differently from 0.25")
	}

	h := s.Handler()
	for i := 0; i < 1000; i++ {
		url := fmt.Sprintf("/render?alg=volren&width=8&height=8&transparent=%.6f", float64(i)/999)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
		}
	}
	// dataset/16 plus at most one volren/16/tr<k/256> per k in [0, 256].
	if st := s.Cache().Stats(); st.Entries > 1+257 {
		t.Errorf("1000 distinct transparent values left %d cache entries, want <= 258: %+v", st.Entries, st)
	}
}

// TestOverloadReturns429 exhausts the budget with a held grant, fills
// the bounded queue, and asserts the next request is refused with 429 +
// Retry-After instead of deadlocking; releasing the grant must then
// drain the parked request to completion.
func TestOverloadReturns429(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 60, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache so the parked request completes quickly once granted.
	if resp, body := get(t, ts, "/render?alg=volren"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, body)
	}

	// Hold the whole budget (sensitive demand above budget clamps to it).
	grant, _, err := s.Admission().Admit(context.Background(), metrics.PowerSensitive, 1e9)
	if err != nil {
		t.Fatal(err)
	}

	// Park one request in the queue (volren is sensitive: charged its
	// demand, which cannot fit while the grant is held).
	parked := make(chan error, 1)
	go func() {
		resp, body := get(t, ts, "/render?alg=volren")
		if resp.StatusCode != http.StatusOK {
			parked <- fmt.Errorf("parked request: status %d: %s", resp.StatusCode, body)
			return
		}
		parked <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next sensitive request must be refused.
	resp, body := get(t, ts, "/render?alg=volren")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	grant.Release()
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parked request never completed after grant release: admission deadlock")
	}
	if st := s.Admission().Stats(); st.Rejected == 0 {
		t.Errorf("admission stats did not count the rejection: %+v", st)
	}
}

// TestCinemaSegments renders two orbit segments and checks the frames
// land on disk and the manifest is written at Close with every frame.
func TestCinemaSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s := New(Options{Config: cfg, CinemaDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first cinemaResponse
	resp, body := get(t, ts, "/cinema?alg=raytrace&from=0&count=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cinema: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("cinema response: %v", err)
	}
	if len(first.Frames) != 3 {
		t.Fatalf("frames = %v, want 3", first.Frames)
	}
	resp, body = get(t, ts, "/cinema?alg=raytrace&from=3&count=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cinema segment 2: status %d: %s", resp.StatusCode, body)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(first.Dir, "index.json"))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var idx struct {
		Entries []struct {
			File string `json:"file"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 5 {
		t.Fatalf("manifest entries = %d, want 5", len(idx.Entries))
	}
	for _, e := range idx.Entries {
		if _, err := os.Stat(filepath.Join(first.Dir, e.File)); err != nil {
			t.Errorf("frame missing: %v", err)
		}
	}
}

// TestSweepEndpoint runs one sweep cell and sanity-checks the cap table
// and classification; a second request must hit the cache.
func TestSweepEndpoint(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/sweep?alg=Contour&size=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Name != "Contour" || sw.Size != 16 {
		t.Errorf("sweep cell = %s/%d, want Contour/16", sw.Name, sw.Size)
	}
	if len(sw.Caps) == 0 || sw.DemandWatts <= 0 {
		t.Errorf("sweep missing cap rows or demand: %+v", sw)
	}
	if sw.Class == "" {
		t.Error("sweep missing classification")
	}

	before := s.Cache().Stats().Misses
	resp, _ = get(t, ts, "/sweep?alg=Contour&size=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep warm: status %d", resp.StatusCode)
	}
	if after := s.Cache().Stats().Misses; after != before {
		t.Errorf("warm sweep rebuilt the cell: misses %d -> %d", before, after)
	}
}

// TestPreloadedGridServedWithoutHydro: the daemon reads the declaration,
// so a Preloaded data set is served as is — by /render, by /sweep, and as
// the base a larger size is resampled from — with no hydro run, and the
// daemon's cache is the only place the resampled grid lands.
func TestPreloadedGridServedWithoutHydro(t *testing.T) {
	pre, err := testConfig().Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	cfg := testConfig()
	cfg.Progress = func(l string) {
		mu.Lock()
		lines = append(lines, l)
		mu.Unlock()
	}
	if err := cfg.Preload(16, pre); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Options{Config: cfg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, p := range []string{"/render?size=16", "/sweep?alg=Slice&size=16", "/render?alg=raytrace&size=24"} {
		if resp, body := get(t, ts, p); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", p, resp.StatusCode, body)
		}
	}
	if g, ok := s.Cache().Peek("dataset/16"); !ok || g != pre {
		t.Error("dataset/16 is not the Preloaded grid")
	}
	if _, ok := s.Cache().Peek("dataset/24"); !ok {
		t.Error("the resampled 24^3 data set is not in the daemon's cache")
	}
	if g, err := cfg.BuildDataset(16, nil); err != nil || g != pre {
		t.Errorf("the declaration's 16^3 changed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "hydro ran") {
			t.Errorf("hydro run behind a Preloaded grid: %q", l)
		}
	}
}

// TestStatsEndpoint checks the counters surface.
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, Options{BudgetWatts: 120})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/render?alg=raytrace"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d: %s", resp.StatusCode, body)
	}
	st := getStats(t, ts)
	if st.Requests < 1 || st.Series["vizpower_admission_admitted_total"] < 1 || st.Series["vizpower_cache_misses_total"] < 1 {
		t.Errorf("stats did not count the request: %+v", st)
	}
	if b := st.Series["vizpower_admission_budget_watts"]; b != 120 {
		t.Errorf("budget = %v, want 120", b)
	}
}

// TestRequestSpansOnConfigTracer: the daemon records its per-request
// spans into the tracer of the Config it serves from, on a request lane.
func TestRequestSpansOnConfigTracer(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = obs.NewTracer()
	s := testServer(t, Options{Config: cfg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := get(t, ts, "/render?alg=raytrace"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d: %s", resp.StatusCode, body)
	}
	lanes := map[obs.Track]bool{}
	for l := 0; l < Lanes; l++ {
		lanes[cfg.Tracer.Lane(l)] = true
	}
	var rendered bool
	for _, sp := range cfg.Tracer.Spans() {
		rendered = rendered || (sp.Name == "serve.render" && lanes[sp.Track])
	}
	if !rendered {
		t.Error("no serve.render span on a request lane of the Config's tracer")
	}
}

// TestBadRequests exercises parameter validation.
func TestBadRequests(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/render?alg=nosuch",
		"/render?alg=ray%20trac%C4%B0ng", // only ASCII letters are lowered
		"/render?size=100000",
		"/render?frame=-1",
		"/render?transparent=2",
		"/sweep?alg=nosuch",
		"/cinema?count=0",
	} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestSeedClassDemandLadder(t *testing.T) {
	s := testServer(t, Options{})
	if v := s.met.reg.Values()[`vizpower_admission_class_demand_watts{class="power sensitive"}`]; v != 0 {
		t.Errorf("unseeded class demand series = %v, want 0", v)
	}
	demand := func(alg string, size int) float64 {
		_, d := s.estimate(workload{alg, size})
		return d
	}
	// Rung 3: nothing known — a never-seen workload charges spec TDP.
	if got := demand("Volume Rendering", 16); got != s.spec.TDPWatts {
		t.Fatalf("cold estimate %.1f W, want TDP %.1f W", got, s.spec.TDPWatts)
	}
	// Rung 2: a governor calibration upgrades the whole class. A class
	// the daemon does not know is ignored, whatever its seed.
	s.SeedClassDemand(map[metrics.Class]float64{
		metrics.PowerSensitive:   80,
		metrics.PowerOpportunity: 58,
		metrics.Class(99):        -5,
	})
	s.SeedClassDemand(map[metrics.Class]float64{metrics.Class(99): 80})
	if got := demand("Volume Rendering", 16); got != 80 {
		t.Errorf("sensitive-class estimate %.1f W, want the seeded 80 W", got)
	}
	if got := demand("Contour", 16); got != 58 {
		t.Errorf("opportunity-class estimate %.1f W, want the seeded 58 W", got)
	}
	// Rung 1: a per-workload measurement beats the class estimate.
	var p ops.Profile
	p.Flops, p.LoadBytes[ops.Resident], p.Launches = 8e9, 16e9, 4
	exec := cpu.Analyze(s.spec, p, 0)
	s.note(workload{"Volume Rendering", 16}, exec, nil)
	if got, want := demand("Volume Rendering", 16), exec.Demand().PowerWatts; got != want || got == 80 {
		t.Errorf("measured estimate %.1f W, want the noted %.1f W", got, want)
	}
	// Other sizes of the class still use the class rung.
	if got := demand("Volume Rendering", 32); got != 80 {
		t.Errorf("unmeasured size fell off the class rung: %.1f W", got)
	}
	// The seeded calibration is visible on both endpoints.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := getStats(t, ts)
	_, text := get(t, ts, "/metrics")
	for class, want := range map[string]float64{"power sensitive": 80, "power opportunity": 58} {
		key := fmt.Sprintf("vizpower_admission_class_demand_watts{class=%q}", class)
		if got := st.Series[key]; got != want {
			t.Errorf("/stats %s = %v, want the seeded %v W", key, got, want)
		}
		if line := fmt.Sprintf("%s %g\n", key, want); !strings.Contains(string(text), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestAdmissionLadderOverHTTP walks the admission estimate ladder as a
// client sees it, in the X-Serve-Class and X-Serve-Charge-Watts headers
// of a daemon whose budget is above TDP, so that no charge is clamped to
// the budget.
func TestAdmissionLadderOverHTTP(t *testing.T) {
	spec := study.Processor()
	cfg := testConfig()
	s := testServer(t, Options{Config: cfg, BudgetWatts: 2 * spec.TDPWatts})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	admitted := func(path string) (class, charge string) {
		t.Helper()
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return resp.Header.Get("X-Serve-Class"), resp.Header.Get("X-Serve-Charge-Watts")
	}
	watts := func(w float64) string { return fmt.Sprintf("%.1f", w) }
	check := func(path, wantClass, wantCharge string) {
		t.Helper()
		if class, charge := admitted(path); class != wantClass || charge != wantCharge {
			t.Errorf("%s: admitted as %q charging %s W, want %q charging %s W", path, class, charge, wantClass, wantCharge)
		}
	}

	// Nothing known: a never-run workload of the paper's power-sensitive
	// class reserves the whole socket.
	check("/render?alg=volren&size=16&frame=3", "power sensitive", watts(spec.TDPWatts))

	// A seeded calibration prices every never-run workload of a class.
	// The opportunity seed is below the cap floor, so it is charged as is.
	s.SeedClassDemand(map[metrics.Class]float64{metrics.PowerSensitive: 80, metrics.PowerOpportunity: 30})
	check("/render?alg=volren&size=8", "power sensitive", watts(80))
	check("/render?alg=raytrace&size=16", "power opportunity", watts(30))

	// A workload that ran charges its own measured demand: the modeled
	// demand of the frame it rendered last.
	g, err := cfg.BuildDataset(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := harness.Frames(g, "Volume Rendering", 0, viz.NewExec(cfg.Pool))
	if err != nil {
		t.Fatal(err)
	}
	cam, _ := render.OrbitView(g.Bounds(), 3, cfg.Images)
	ex := viz.NewExec(cfg.Pool)
	frame(nil, cam, cfg.ImageSize, cfg.ImageSize, ex)
	measured := watts(cpu.Analyze(spec, ex.Drain(), 0).Demand().PowerWatts)
	if measured == watts(80) || measured == watts(spec.TDPWatts) {
		t.Fatalf("frame 3 demands %s W: the measured rung cannot be told from the others", measured)
	}
	check("/render?alg=volren&size=16&frame=3", "power sensitive", measured)

	// A sweep cell's class and demand become the workload's: the next
	// /render is admitted under the sweep's class, and an opportunity
	// request reserves at most the cap floor.
	for _, alg := range []string{"volren", "raytrace"} {
		resp, body := get(t, ts, "/sweep?alg="+alg+"&size=16")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %s: status %d: %s", alg, resp.StatusCode, body)
		}
		var sw sweepResponse
		if err := json.Unmarshal(body, &sw); err != nil {
			t.Fatal(err)
		}
		want := sw.DemandWatts
		if sw.Class == metrics.PowerOpportunity.String() {
			want = min(want, spec.MinCapWatts)
		}
		t.Logf("%s 16³: swept as %s demanding %.1f W", alg, sw.Class, sw.DemandWatts)
		check("/render?alg="+alg+"&size=16", sw.Class, watts(want))
	}
}

// raceColdRenders brings up n fresh daemons one after another, warms each
// one's 16^3 data set, and releases path together with six cold
// volume-renderer builds over that cached grid (harness.Frames'
// EnsurePointField reads its field map). Under -race (make race runs this
// package) the detector is the oracle; without it the requests must still
// all succeed.
func raceColdRenders(t *testing.T, n int, path string) {
	for d := 0; d < n; d++ {
		s := New(Options{Config: testConfig(), CinemaDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		if resp, body := get(t, ts, "/render?alg=raytrace&size=16"); resp.StatusCode != http.StatusOK {
			t.Fatalf("daemon %d warm-up: status %d: %s", d, resp.StatusCode, body)
		}
		paths := []string{path}
		for k := 1; k <= 6; k++ {
			paths = append(paths, fmt.Sprintf("/render?alg=volren&size=16&transparent=%g", float64(k)/256))
		}
		release := make(chan struct{})
		var wg sync.WaitGroup
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				<-release
				resp, err := ts.Client().Get(ts.URL + p)
				if err != nil {
					t.Errorf("daemon %d GET %s: %v", d, p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("daemon %d GET %s: status %d", d, p, resp.StatusCode)
				}
			}(p)
		}
		close(release)
		wg.Wait()
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("daemon %d Close: %v", d, err)
		}
	}
}

// TestSweepGradientDoesNotRaceRender: the gradient filter used to add its
// output fields to the shared cached grid — a map write racing the cold
// builds' read, which the Go runtime aborts on as "concurrent map read
// and map write". The window is narrow: 25 fresh daemons caught it on
// every -race run at the commit that had the bug.
func TestSweepGradientDoesNotRaceRender(t *testing.T) {
	raceColdRenders(t, 25, "/sweep?alg=Gradient&size=16")
}

// TestResampleDoesNotRaceRender: 24^3 is above the test daemon's
// MaxSimSize, so it is resampled from the cached 16^3 grid, and
// mesh.ResampleCube used to store the recentered point version of every
// cell field into that source. Same race, same class; 40 daemons caught
// it on every -race run at the commit that had the bug.
func TestResampleDoesNotRaceRender(t *testing.T) {
	raceColdRenders(t, 40, "/render?size=24")
}

// A /sweep whose build panics answers 500 and gives its admission grant
// back, so the budget does not drain into 429s; a retry builds again
// instead of parking on the failed flight. The grid's fields are shorter
// than its cells, so the kernel indexes past them in a pool worker and
// par re-raises the panic on the request's goroutine.
func TestSweepPanickingBuildReleasesItsGrant(t *testing.T) {
	bad, err := mesh.NewCubeGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	bad.AddCellField("energy")
	bad.AddPointField("energy")
	bad.Dims = [3]int{9, 9, 9}
	cfg := testConfig()
	if err := cfg.Preload(8, bad); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Options{Config: cfg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, body := get(t, ts, "/sweep?alg=Threshold&size=8")
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
			t.Fatalf("request %d: status %d: %s, want a 500 naming the panic", i, resp.StatusCode, body)
		}
		if w := s.Admission().Stats().CurrentWatts; w != 0 {
			t.Fatalf("request %d: %.1f W still admitted after the failed build", i, w)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 3 {
		t.Errorf("cache stats %+v: want 3 builds (the data set, then the sweep cell twice)", st)
	}
}

// discardWriter is an http.ResponseWriter that keeps one header map
// across requests and drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// A warm /render of the default frame allocates its request's small
// change: the framebuffer and the PNG buffer come back from the daemon's
// free list, and the PNG writer's compressor from the writer's. Before
// both, a 128² frame cost 48–54 allocations and 724–733 KB, nearly all
// of it a fresh 655 KB framebuffer. Admission's workload table, the
// allocation-free frequency ladder walk and strconv headers then took
// volren/raytrace from 42/41 allocations to 29/28.
func TestWarmRenderAllocs(t *testing.T) {
	maxAllocs, maxBytes := 30.0, float64(16<<10)
	if raceDetector {
		maxAllocs = 40 // the detector adds its own: 31–32/30 measured under -race
	}
	s := testServer(t, Options{Config: &harness.Config{
		Sizes: []int{32}, PhaseSize: 32, MaxSimSize: 32, SimTime: 0.05,
		Images: 50, ImageSize: 128, Particles: 64, ParticleSteps: 100,
	}})
	h := s.Handler()
	for _, alg := range []string{"volren", "raytrace"} {
		req := httptest.NewRequest(http.MethodGet, "/render?alg="+alg+"&frame=7", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req) // the build
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { h.ServeHTTP(w, req) })
		runtime.ReadMemStats(&after)
		// AllocsPerRun warms up with one extra call.
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %.0f allocations, %.0f bytes per warm /render", alg, allocs, perRun)
		if allocs > maxAllocs || perRun > maxBytes {
			t.Errorf("%s: a warm /render makes %.0f allocations of %.0f bytes, bound %.0f and %.0f", alg, allocs, perRun, maxAllocs, maxBytes)
		}
	}
}
