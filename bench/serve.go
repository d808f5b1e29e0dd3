package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve"
)

// daemon is an in-process `vizpower serve`: the real handler behind a
// loopback HTTP server.
type daemon struct {
	s  *serve.Server
	ts *httptest.Server
}

// startDaemon brings the daemon up the way `vizpower serve -budget 130`
// does and asks for one volume-rendered and one ray-traced frame, which
// builds the data set and both derived structures. A preloaded grid
// skips the hydro run (the traced run shares one data set).
func startDaemon(sc scale, cinemaDir string, preload *mesh.UniformGrid) (*daemon, error) {
	cfg := datasetConfig(sc, par.Default())
	if preload != nil {
		cfg.Preload(sc.grid, preload)
	}
	d := &daemon{s: serve.New(serve.Options{Config: cfg, BudgetWatts: 130, CinemaDir: cinemaDir})}
	d.ts = httptest.NewServer(d.s.Handler())
	for _, alg := range []string{"volren", "raytrace"} {
		resp, err := d.ts.Client().Get(d.ts.URL + "/render?alg=" + alg)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("first %s frame: %w", alg, err)
		}
	}
	return d, nil
}

func (d *daemon) close() error {
	d.ts.Close()
	return d.s.Close()
}

// request is one generated call and what its answer must look like.
type request struct {
	path   string
	kind   string // render, sweep, cinema, metrics, stats, healthz
	w, h   int    // render: the PNG's size
	frames int    // cinema: frames in the segment
}

// checker verifies responses. It remembers the digest of the first body
// seen per render URL: a warm frame must repeat it byte for byte.
type checker struct {
	mu   sync.Mutex
	seen map[string]digest
}

func (c *checker) check(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.80s", status, body)
	}
	switch req.kind {
	case "render":
		got := fnvOffset.bytes(body)
		c.mu.Lock()
		want, ok := c.seen[req.path]
		if !ok {
			c.seen[req.path] = got
		}
		c.mu.Unlock()
		if ok {
			if got != want {
				return fmt.Errorf("frame bytes differ from the first response")
			}
			return nil
		}
		im, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("undecodable PNG: %w", err)
		}
		if b := im.Bounds(); b.Dx() != req.w || b.Dy() != req.h {
			return fmt.Errorf("PNG is %dx%d, want %dx%d", b.Dx(), b.Dy(), req.w, req.h)
		}
	case "sweep":
		var v struct {
			Name string `json:"name"`
			Caps []struct {
				TimeSec float64 `json:"time_sec"`
			} `json:"caps"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Name == "" || len(v.Caps) != 9 || v.Caps[0].TimeSec <= 0 {
			return fmt.Errorf("sweep cell %q has %d cap rows", v.Name, len(v.Caps))
		}
	case "cinema":
		var v struct {
			Frames []string `json:"frames"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Frames) != req.frames {
			return fmt.Errorf("cinema segment has %d frames, want %d", len(v.Frames), req.frames)
		}
	case "metrics":
		if n, err := obs.ValidatePrometheus(body); err != nil || n == 0 {
			return fmt.Errorf("invalid exposition (%d series): %v", n, err)
		}
	case "stats":
		var v struct {
			Requests int64 `json:"requests"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Requests == 0 {
			return fmt.Errorf("stats counts no requests")
		}
	}
	return nil
}

// warmStream is one viewer scrubbing the orbit: consecutive frames from
// a seeded start, each volume-rendered or ray-traced with equal odds.
func warmStream(sc scale, seed int64, client int) func() request {
	rng := rand.New(rand.NewSource(seed*64 + int64(client)))
	frame := rng.Intn(sc.images)
	algs := []string{"volren", "raytrace"}
	return func() request {
		frame = (frame + 1) % sc.images
		return request{
			kind: "render", w: sc.imageSize, h: sc.imageSize,
			path: fmt.Sprintf("/render?alg=%s&frame=%d", algs[rng.Intn(2)], frame),
		}
	}
}

// sweepAlgorithms are the ten cells /sweep can be asked for.
var sweepAlgorithms = []string{"Contour", "Spherical Clip", "Isovolume", "Threshold", "Slice",
	"Ray Tracing", "Particle Advection", "Volume Rendering", "Gradient", "Histogram"}

// churnStream is the mixed traffic. The kind of each request follows a
// fixed pattern of ten — seven /render, one /sweep, one /cinema, one
// scrape — so every seed sends the same amount of each; the seed draws
// what is asked for. Render keys are Zipf(1.1) over algorithm x size x
// transparency (k/256): a few keys are hot, and new ones keep arriving.
func churnStream(sc scale, seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	sizes := sc.churnSizes
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(2*len(sizes)*256-1))
	algs := []string{"volren", "raytrace"}
	pattern := []string{"render", "render", "sweep", "render", "render", "cinema", "render", "render", "scrape", "render"}
	i := 0
	return func() request {
		kind := pattern[i%len(pattern)]
		decade := i / len(pattern)
		i++
		switch kind {
		case "sweep":
			alg := sweepAlgorithms[rng.Intn(len(sweepAlgorithms))]
			size := sc.sweepSizes[rng.Intn(len(sc.sweepSizes))]
			return request{kind: "sweep", path: fmt.Sprintf("/sweep?alg=%s&size=%d", url.QueryEscape(alg), size)}
		case "cinema":
			count := min(8, sc.images)
			return request{kind: "cinema", frames: count, path: fmt.Sprintf("/cinema?alg=%s&size=%d&from=%d&count=%d",
				algs[rng.Intn(2)], sizes[rng.Intn(len(sizes))], rng.Intn(sc.images-count+1), count)}
		case "scrape":
			if decade%2 == 0 {
				return request{kind: "metrics", path: "/metrics"}
			}
			return request{kind: "stats", path: "/stats"}
		}
		r := int(zipf.Uint64())
		return request{
			kind: "render", w: sc.imageSize, h: sc.imageSize,
			path: fmt.Sprintf("/render?alg=%s&size=%d&transparent=%s&frame=%d",
				algs[r%2], sizes[(r/2)%len(sizes)],
				strconv.FormatFloat(float64(r/(2*len(sizes)))/256, 'g', -1, 64), rng.Intn(sc.images)),
		}
	}
}

// loadResult is what the clients saw.
type loadResult struct {
	latMs, coldMs, queueWaitMs, joules []float64
	byKind                             map[string][]float64
	window                             time.Duration
}

// drive runs the closed loop: each client sends its next request only
// when the previous answer has arrived and been checked. next[c] is
// client c's generator (the churn clients share one, behind a lock);
// more reports whether another request may start, given how many have.
func drive(d *daemon, next []func() request, more func(started int) bool, chk *checker, rec *recorder, out *run) loadResult {
	var started atomic.Int64
	results := make([]loadResult, len(next))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.byKind = map[string][]float64{}
			client := d.ts.Client()
			for {
				op := int(started.Add(1) - 1)
				if !more(op) {
					return
				}
				req := next[c]()
				out.attempt()
				root := rec.begin("serve."+req.kind, -1, op)
				var status int
				var header http.Header
				var body []byte
				var err error
				lat := rec.do("http.roundtrip", root, op, func() {
					var resp *http.Response
					if resp, err = client.Get(d.ts.URL + req.path); err != nil {
						return
					}
					status, header = resp.StatusCode, resp.Header
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				})
				if err == nil {
					rec.do("bench.check", root, op, func() { err = chk.check(req, status, body) })
				}
				rec.end(root)
				if err != nil {
					out.fail("%s: %v", req.path, err)
				}
				res.latMs = append(res.latMs, ms(lat))
				res.byKind[req.kind] = append(res.byKind[req.kind], ms(lat))
				if header.Get("X-Serve-Cache") == "miss" {
					res.coldMs = append(res.coldMs, ms(lat))
				}
				if v, err := strconv.ParseFloat(header.Get("X-Serve-Queue-Wait-Ms"), 64); err == nil {
					res.queueWaitMs = append(res.queueWaitMs, v)
				}
				if v, err := strconv.ParseFloat(header.Get("X-Energy-Joules"), 64); err == nil && req.kind == "render" {
					res.joules = append(res.joules, v)
				}
			}
		}(c)
	}
	wg.Wait()
	all := loadResult{byKind: map[string][]float64{}, window: time.Since(start)}
	for _, r := range results {
		all.latMs = append(all.latMs, r.latMs...)
		all.coldMs = append(all.coldMs, r.coldMs...)
		all.queueWaitMs = append(all.queueWaitMs, r.queueWaitMs...)
		all.joules = append(all.joules, r.joules...)
		for k, v := range r.byKind {
			all.byKind[k] = append(all.byKind[k], v...)
		}
	}
	return all
}

// generators returns one request generator per client for the warm or
// the churning traffic.
func generators(sc scale, churn bool, seed int64) []func() request {
	next := make([]func() request, sc.clients)
	if churn {
		var mu sync.Mutex
		stream := churnStream(sc, seed)
		for c := range next {
			next[c] = func() request {
				mu.Lock()
				defer mu.Unlock()
				return stream()
			}
		}
		return next
	}
	for c := range next {
		next[c] = warmStream(sc, seed, c)
	}
	return next
}

// warmAll asks for every frame of both orbits once, so the timed warm
// requests compare against a decoded, size-checked first response.
func warmAll(d *daemon, sc scale, chk *checker, out *run) {
	var reqs []request
	for _, alg := range []string{"volren", "raytrace"} {
		for f := 0; f < sc.images; f++ {
			reqs = append(reqs, request{kind: "render", w: sc.imageSize, h: sc.imageSize,
				path: fmt.Sprintf("/render?alg=%s&frame=%d", alg, f)})
		}
	}
	i := 0
	one := func() request { i++; return reqs[i-1] }
	quiet := newRun(out.decl) // warm-up requests are checked but are not operations of the run
	drive(d, []func() request{one}, func(started int) bool { return started < len(reqs) }, chk, nil, quiet)
	for _, msg := range quiet.messages {
		out.fail("warm-up: %s", msg)
	}
}

// runServe is the two daemon workloads. Set-up (repeated, median
// reported) starts the daemon and builds the data set and both
// structures; then the clients run for the given time — on serve-warm
// over frames whose structures are all cached, on serve-churn over the
// seeded mix that keeps bringing new keys.
func runServe(sc scale, churn bool, seed int64, seconds float64, tmp string, out *run) {
	var d *daemon
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				out.fail("serve: close: %v", err)
			}
		}
		t := time.Now()
		var err error
		if d, err = startDaemon(sc, filepath.Join(tmp, fmt.Sprintf("cinema-%d", i)), nil); err != nil {
			out.fatal("serve: %v", err)
			return
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))

	chk := &checker{seen: map[string]digest{}}
	if !churn {
		warmAll(d, sc, chk, out)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	res := drive(d, generators(sc, churn, seed), func(int) bool { return time.Now().Before(deadline) }, chk, nil, out)
	if err := d.close(); err != nil {
		out.fail("serve: close: %v", err)
	}
	out.latencies(res.latMs, res.window.Seconds())
	out.set("rss_peak_mb", rssPeakMB(), 1)
}
