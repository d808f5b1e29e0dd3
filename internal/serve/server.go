package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/study"
	"repro/internal/viz"
)

// Options configures a Server.
type Options struct {
	// Config is the study declaration the daemon serves from: its
	// Preloaded data sets, workload defaults (image size, orbit length),
	// processor spec, worker pool, and tracer, which receives per-request
	// spans (admit/wait/build|hit/render/encode) on the request lanes
	// (Tracer.Lane). The daemon only reads it, through the
	// declaration-only entry points (BuildDataset, Execute), and owns
	// everything it builds in its own cache. nil gets a Defaults() Config.
	Config *harness.Config
	// BudgetWatts is the node power budget the admission queue enforces.
	// <= 0 disables admission control.
	BudgetWatts float64
	// QueueDepth bounds the admission queue (default 64, NewAdmission's).
	QueueDepth int
	// CinemaDir is where /cinema orbit databases accumulate. Default
	// "out/serve-cinema".
	CinemaDir string
}

const (
	// Lanes is the number of request telemetry lanes.
	Lanes = 8
	// maxSize bounds the dataset edge length a request may ask for — the
	// guard against a stray request scheduling an arbitrarily large hydro
	// run.
	maxSize = 256
)

// Server is the power-budgeted rendering daemon: HTTP handlers over the
// derived-structure cache and the admission queue.
type Server struct {
	opts  Options
	spec  cpu.Spec
	pool  *par.Pool
	cache *Cache
	adm   *Admission
	tr    *obs.Tracer
	t0    time.Time

	lanes chan int

	cineMu sync.Mutex
	cine   map[string]*cinemaDB

	// estimates holds the measured demand power per (alg, size), fed
	// back from completed requests so admission charges converge from
	// the static class default to the modeled demand of the actual
	// workload. classes likewise upgrades the static paper
	// classification with the measured one once a sweep cell ran.
	estimates sync.Map // string -> float64 (watts)
	classes   sync.Map // string -> metrics.Class
	// classDemand holds the governor-measured time-weighted demand per
	// power class (SeedClassDemand) — the middle rung of the admission
	// estimate ladder between a per-workload measurement and the spec
	// TDP guess.
	classDemand sync.Map // metrics.Class -> float64 (watts)

	// met is the daemon's metrics plane (GET /metrics); govDecisions is
	// the seeded governor decision log (GET /debug/governor).
	met          *serverMetrics
	govMu        sync.Mutex
	govDecisions []obs.Decision
	govDropped   int64

	// frames holds /render's per-request buffers between requests, about
	// 0.7 MB each for a 128² frame.
	frames render.FreeList[*servedFrame]
}

// servedFrame is one /render request's scratch: the framebuffer the frame
// renders into and the buffer its PNG is encoded into.
type servedFrame struct {
	im  *render.Image
	png bytes.Buffer
}

// New builds a Server over opts.
func New(opts Options) *Server {
	if opts.Config == nil {
		opts.Config = &harness.Config{}
	}
	opts.Config.Defaults()
	if opts.CinemaDir == "" {
		opts.CinemaDir = "out/serve-cinema"
	}
	s := &Server{
		opts:  opts,
		spec:  study.Processor(),
		pool:  opts.Config.Pool,
		cache: NewCache(),
		adm: NewAdmission(AdmissionOptions{
			BudgetWatts: opts.BudgetWatts,
			FloorWatts:  study.Processor().MinCapWatts,
			QueueDepth:  opts.QueueDepth,
		}),
		tr:   opts.Config.Tracer,
		t0:   time.Now(),
		cine: make(map[string]*cinemaDB),
	}
	s.lanes = make(chan int, Lanes)
	for l := 0; l < Lanes; l++ {
		s.lanes <- l
	}
	s.initMetrics()
	return s
}

// Handler returns the daemon's HTTP mux:
//
//	GET /render         — one orbit frame as PNG
//	GET /cinema         — an orbit segment into a cinema database (JSON)
//	GET /sweep          — one (algorithm, size) sweep cell under every cap (JSON)
//	GET /stats          — the registry as JSON: request total and every non-bucket sample
//	GET /metrics        — the registry in Prometheus text format
//	GET /debug/governor — the seeded governor decision log (JSON)
//	GET /healthz        — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/render", s.metered("render", s.handleRender))
	mux.HandleFunc("/cinema", s.metered("cinema", s.handleCinema))
	mux.HandleFunc("/sweep", s.metered("sweep", s.handleSweep))
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/governor", s.handleDebugGovernor)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Close finalizes every open cinema database (writing their manifests)
// and reports any encode failures. Call after the HTTP server has
// drained in-flight requests (http.Server.Shutdown).
func (s *Server) Close() error {
	s.cineMu.Lock()
	dbs := make([]*cinemaDB, 0, len(s.cine))
	for _, db := range s.cine {
		dbs = append(dbs, db)
	}
	s.cine = make(map[string]*cinemaDB)
	s.cineMu.Unlock()
	var errs []error
	for _, db := range dbs {
		if err := db.db.Finalize(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", db.dir, err))
		}
	}
	return errors.Join(errs...)
}

// lane leases a request telemetry lane; done returns it. A request that
// finds every lane busy records on obs.NoTrack, so a tracer counts its
// spans as dropped.
func (s *Server) lane() (track obs.Track, done func()) {
	select {
	case l := <-s.lanes:
		return s.tr.Lane(l), func() { s.lanes <- l }
	default:
		return obs.NoTrack, func() {}
	}
}

// metered wraps one of the metered handlers in the request prologue they
// share: count the request, observe its wall time, lease a telemetry lane
// and record the whole-request span on it. h gets the lane's track for
// its stage spans.
func (s *Server) metered(name string, h func(w http.ResponseWriter, r *http.Request, track obs.Track)) http.HandlerFunc {
	requests := s.met.requests[name]
	spanName := "serve./" + name
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		defer s.met.observeRequest(name, time.Now())
		track, done := s.lane()
		defer done()
		defer s.tr.End(track, spanName, s.tr.Begin())
		h(w, r, track)
	}
}

// renderRequest is the parsed, validated form of /render and /cinema
// query parameters.
type renderRequest struct {
	alg         string // canonical: "volren" | "raytrace"
	name        string // paper name for the algorithm
	size        int
	frame       int
	images      int
	w, h        int
	transparent float64
}

// algNames maps accepted ?alg= spellings to (key, paper name).
var algNames = map[string][2]string{
	"volren":           {"volren", "Volume Rendering"},
	"volume rendering": {"volren", "Volume Rendering"},
	"raytrace":         {"raytrace", "Ray Tracing"},
	"ray tracing":      {"raytrace", "Ray Tracing"},
}

func (s *Server) parseRender(r *http.Request) (*renderRequest, error) {
	q := r.URL.Query()
	cfg := s.opts.Config
	rr := &renderRequest{
		alg:    "volren",
		name:   "Volume Rendering",
		size:   cfg.PhaseSize,
		images: cfg.Images,
		w:      cfg.ImageSize,
		h:      cfg.ImageSize,
	}
	if v := q.Get("alg"); v != "" {
		names, ok := algNames[normalize(v)]
		if !ok {
			return nil, fmt.Errorf("alg must be volren or raytrace, got %q", v)
		}
		rr.alg, rr.name = names[0], names[1]
	}
	var err error
	if rr.size, err = intParam(q.Get("size"), rr.size, 8, maxSize); err != nil {
		return nil, fmt.Errorf("size: %w", err)
	}
	if rr.images, err = intParam(q.Get("images"), rr.images, 1, 4096); err != nil {
		return nil, fmt.Errorf("images: %w", err)
	}
	if rr.frame, err = intParam(q.Get("frame"), 0, 0, rr.images-1); err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	if rr.w, err = intParam(q.Get("width"), rr.w, 8, 2048); err != nil {
		return nil, fmt.Errorf("width: %w", err)
	}
	if rr.h, err = intParam(q.Get("height"), rr.h, 8, 2048); err != nil {
		return nil, fmt.Errorf("height: %w", err)
	}
	if v := q.Get("transparent"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 || t > 1 || math.IsNaN(t) {
			return nil, fmt.Errorf("transparent must be in [0,1], got %q", v)
		}
		// Quantized to 1/256 here, before the cache key and the transfer
		// function read it: a client sweeping the raw float cannot mint
		// more than 257 renderers per size.
		rr.transparent = math.Round(t*256) / 256
	}
	return rr, nil
}

// normalize lowers ASCII letters and nothing else. strings.ToLower would
// also lower U+0130 (İ) to i and U+212A (the Kelvin sign) to k, so that
// "ray tracİng" named an algorithm.
func normalize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func intParam(v string, def, lo, hi int) (int, error) {
	if v == "" {
		if def < lo {
			def = lo
		}
		if def > hi {
			def = hi
		}
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("%d outside [%d, %d]", n, lo, hi)
	}
	return n, nil
}

// dataset returns the (cached, single-flight) dataset at size. The base
// of a resampled size comes back through here, under its own key.
func (s *Server) dataset(size int) (*mesh.UniformGrid, error) {
	v, _, err := s.cache.GetOrBuild(fmt.Sprintf("dataset/%d", size), func() (any, error) {
		return s.opts.Config.BuildDataset(size, s.dataset)
	})
	if err != nil {
		return nil, err
	}
	return v.(*mesh.UniformGrid), nil
}

// frameEntry is the cached derived structure behind /render and /cinema,
// for either algorithm: the prepared (immutable) frame renderer
// harness.Frames built, and the bounds its orbit circles.
type frameEntry struct {
	bounds mesh.Bounds
	frame  viz.FrameFunc
}

// structureKey is the cache key for a request's derived structure:
// dataset identity (size stands in for (dataset, timestep) — the hydro
// run's SimTime is fixed per daemon) plus every transfer-function
// parameter that changes the built tables.
func (rr *renderRequest) structureKey() string {
	if rr.alg == "volren" {
		return fmt.Sprintf("volren/%d/tr%g", rr.size, rr.transparent)
	}
	return fmt.Sprintf("raytrace/%d", rr.size)
}

// buildFrames is the cache build behind structureKey.
func (s *Server) buildFrames(rr *renderRequest) func() (any, error) {
	return func() (any, error) {
		g, err := s.dataset(rr.size)
		if err != nil {
			return nil, err
		}
		frame, err := harness.Frames(g, rr.name, rr.transparent, viz.NewExec(s.pool))
		if err != nil {
			return nil, err
		}
		return &frameEntry{bounds: g.Bounds(), frame: frame}, nil
	}
}

// renderFrame renders orbit frame i of rr through a cached entry, into im
// when it has the frame's size (nil allocates), and settles its accounts:
// the run's modeled demand feeds back into the admission estimate, and
// its modeled energy at TDP is added to the daemon's counters and
// returned beside the image and the orbit azimuth.
func (s *Server) renderFrame(e *frameEntry, rr *renderRequest, i int, im *render.Image) (_ *render.Image, azimuthRad, joules float64) {
	cam, az := render.OrbitView(e.bounds, i, rr.images)
	ex := viz.NewExec(s.pool)
	im = e.frame(im, cam, rr.w, rr.h, ex)
	exec := cpu.Analyze(s.spec, ex.Drain(), 0)
	s.noteDemand(rr.name, rr.size, exec)
	joules = exec.UnderCap(s.spec.TDPWatts).EnergyJ
	s.met.energyJ.Add(joules)
	s.met.frames.Inc()
	return im, az, joules
}

// estimateKey identifies an (algorithm, size) workload for the demand
// feedback maps.
func estimateKey(name string, size int) string { return fmt.Sprintf("%s/%d", name, size) }

// classOf returns the admission class for an algorithm: the measured
// classification when a sweep cell has run, otherwise the paper's
// Table II result — volume rendering and particle advection are power
// sensitive, everything else offers power opportunity.
func (s *Server) classOf(name string, size int) metrics.Class {
	if v, ok := s.classes.Load(estimateKey(name, size)); ok {
		return v.(metrics.Class)
	}
	switch name {
	case "Volume Rendering", "Particle Advection":
		return metrics.PowerSensitive
	}
	return metrics.PowerOpportunity
}

// demandWatts returns the admission charge estimate for an (algorithm,
// size), best knowledge first: the measured modeled demand once any
// request of that workload completed; else the governor-measured demand
// of the workload's power class when a closed-loop calibration was
// seeded (SeedClassDemand); else the spec TDP (conservative — the first
// request of a workload reserves a full socket).
func (s *Server) demandWatts(name string, size int) float64 {
	if v, ok := s.estimates.Load(estimateKey(name, size)); ok {
		return v.(float64)
	}
	if v, ok := s.classDemand.Load(s.classOf(name, size)); ok {
		return v.(float64)
	}
	return s.spec.TDPWatts
}

// SeedClassDemand installs governor-measured per-class demand estimates
// (power.Result.ClassDemand or harness.GovernResult.ClassDemand):
// admission charges for workloads that have never run converge from the
// spec TDP to what the closed-loop run actually measured for their
// class. Nonpositive entries are ignored.
func (s *Server) SeedClassDemand(demand map[metrics.Class]float64) {
	for class, w := range demand {
		if w > 0 {
			s.classDemand.Store(class, w)
		}
	}
}

// noteDemand feeds a completed request's modeled demand power back into
// the admission estimate.
func (s *Server) noteDemand(name string, size int, exec cpu.Execution) {
	if exec.Instructions == 0 {
		return
	}
	s.estimates.Store(estimateKey(name, size), exec.Demand().PowerWatts)
}

// admitBuild is the front half every metered request shares: admit it
// under the power budget, then fetch key from the structure cache or
// build it, recording the stage as a serve.hit or serve.build span. On
// failure the response is already written, the grant released, and g is
// nil; otherwise the caller releases g when the request is done.
func (s *Server) admitBuild(w http.ResponseWriter, r *http.Request, track obs.Track, name string, size int,
	key string, build func() (any, error)) (g *Grant, v any, hit bool) {
	if g = s.admit(w, r, track, name, size); g == nil {
		return nil, nil, false
	}
	buildStart := s.tr.Begin()
	v, hit, err := s.cache.GetOrBuild(key, build)
	stage := "serve.build"
	if hit {
		stage = "serve.hit"
	}
	s.tr.End(track, stage, buildStart)
	if err != nil {
		g.Release()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, false
	}
	return g, v, hit
}

// admit runs the admission policy for one request, recording the admit
// and queue-wait spans. On overload it writes 429 + Retry-After and
// returns nil.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, track obs.Track, name string, size int) *Grant {
	class := s.classOf(name, size)
	demand := s.demandWatts(name, size)
	admitStart := s.tr.Begin()
	g, wait, err := s.adm.Admit(r.Context(), class, demand)
	s.tr.End(track, "serve.admit", admitStart)
	if wait > 0 {
		end := s.tr.Now()
		s.tr.Record(track, "serve.wait", end-int64(wait), int64(wait))
	}
	if err != nil {
		var ov *OverloadError
		if errors.As(err, &ov) {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ov.RetryAfter.Seconds()))))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return nil
		}
		// Client went away while parked.
		http.Error(w, err.Error(), 499)
		return nil
	}
	w.Header().Set("X-Serve-Class", class.String())
	w.Header().Set("X-Serve-Charge-Watts", fmt.Sprintf("%.1f", g.Watts()))
	w.Header().Set("X-Serve-Queue-Wait-Ms", fmt.Sprintf("%.1f", wait.Seconds()*1e3))
	return g
}

// handleRender serves GET /render: admit under the power budget, fetch
// or build the derived structure, render one orbit frame, encode it as
// PNG. Every stage lands as a span on the request's telemetry lane.
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request, track obs.Track) {
	rr, err := s.parseRender(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g, v, hit := s.admitBuild(w, r, track, rr.name, rr.size, rr.structureKey(), s.buildFrames(rr))
	if g == nil {
		return
	}
	defer g.Release()

	sf := s.frames.Get()
	if sf == nil {
		sf = &servedFrame{}
	}
	renderStart := s.tr.Begin()
	var frameJ float64
	sf.im, _, frameJ = s.renderFrame(v.(*frameEntry), rr, rr.frame, sf.im)
	s.tr.End(track, "serve.render", renderStart)

	encodeStart := s.tr.Begin()
	buf := &sf.png
	buf.Reset()
	if err := sf.im.WritePNG(buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.tr.End(track, "serve.encode", encodeStart)
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	w.Header().Set("X-Energy-Joules", fmt.Sprintf("%.3f", frameJ))
	w.Header().Set("X-Serve-Cache", cacheState)
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
	// Write has copied the body out. A frame larger than the daemon's
	// default is not kept, so idle buffers stay small.
	if cfg := s.opts.Config; sf.im.W*sf.im.H <= cfg.ImageSize*cfg.ImageSize {
		s.frames.Put(sf)
	}
}

// sweepResponse is the JSON body of /sweep: one (algorithm, size) cell
// of the study matrix, modeled under every configured cap.
type sweepResponse struct {
	Name        string        `json:"name"`
	Size        int           `json:"size"`
	Elements    int64         `json:"elements"`
	DemandWatts float64       `json:"demand_watts"`
	Class       string        `json:"class"`
	WallSec     float64       `json:"wall_sec"`
	Caps        []sweepCapRow `json:"caps"`
}

type sweepCapRow struct {
	CapWatts    float64 `json:"cap_watts"`
	TimeSec     float64 `json:"time_sec"`
	PowerWatts  float64 `json:"power_watts"`
	EnergyJ     float64 `json:"energy_j"`
	IPC         float64 `json:"ipc"`
	LLCMissRate float64 `json:"llc_miss_rate"`
	Throttled   bool    `json:"throttled"`
}

// handleSweep serves GET /sweep: execute (or fetch) one sweep cell —
// any of the paper's algorithms at any size — and return its cap table.
// The cell is built single-flight and cached, so a sweep served to
// thousands of clients costs one instrumented execution.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, track obs.Track) {
	q := r.URL.Query()
	name := q.Get("alg")
	if name == "" {
		name = "Contour"
	}
	if n, ok := algNames[normalize(name)]; ok {
		name = n[1]
	}
	f, err := s.opts.Config.FilterByName(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size, err := intParam(q.Get("size"), s.opts.Config.PhaseSize, 8, maxSize)
	if err != nil {
		http.Error(w, fmt.Sprintf("size: %v", err), http.StatusBadRequest)
		return
	}

	g, v, _ := s.admitBuild(w, r, track, name, size, fmt.Sprintf("sweep/%s/%d", name, size), func() (any, error) {
		// The dataset comes through the single-flight cache, so a
		// concurrent /render of the same size shares the build.
		ds, err := s.dataset(size)
		if err != nil {
			return nil, err
		}
		cell, err := s.opts.Config.Execute(f, ds)
		if err != nil {
			return nil, err
		}
		return study.Price(cell, s.opts.Config.Caps), nil
	})
	if g == nil {
		return
	}
	defer g.Release()
	run := v.(*study.Run)
	// Feed the measured demand and classification back into admission.
	s.noteDemand(name, size, run.Exec)
	s.classes.Store(estimateKey(name, size), run.Class)

	resp := sweepResponse{
		Name:        run.Name,
		Size:        run.Size,
		Elements:    run.Elements,
		DemandWatts: run.Demand.PowerWatts,
		Class:       run.Class.String(),
		WallSec:     run.WallSec,
	}
	for _, cr := range run.ByCap {
		resp.Caps = append(resp.Caps, sweepCapRow{
			CapWatts:    cr.CapWatts,
			TimeSec:     cr.TimeSec,
			PowerWatts:  cr.PowerWatts,
			EnergyJ:     cr.EnergyJ,
			IPC:         cr.IPC,
			LLCMissRate: cr.LLCMissRate,
			Throttled:   cr.Throttled,
		})
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// On error (a non-finite float) Encode has written nothing yet.
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Admission exposes the admission queue (benchmarks read its stats).
func (s *Server) Admission() *Admission { return s.adm }

// Cache exposes the derived-structure cache (tests read its stats).
func (s *Server) Cache() *Cache { return s.cache }
