package serve

import (
	"net/http"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
)

// requestLatencyBounds are the /render–/cinema–/sweep latency buckets
// in seconds: the cheap cache-hit renders land in the sub-10 ms
// buckets, cold structure builds and sweep cells in the tail.
var requestLatencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// serverMetrics holds the daemon's hot-path metric handles; everything
// snapshot-shaped (admission, cache, pool, fabric) is func-backed and
// read only at scrape time, so request handling pays one counter add
// and one histogram observe per request. reg is the one source of the
// daemon's numbers: /metrics and /stats both read it.
type serverMetrics struct {
	reg      *obs.Registry
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	energyJ  *obs.FloatCounter
	frames   *obs.Counter
}

// handlers that get per-handler request counters and latency series.
var meteredHandlers = []string{"render", "cinema", "sweep"}

// initMetrics builds the daemon's registry: hot-path handles for the
// request counters plus scrape-time collectors over every subsystem
// snapshot the daemon already keeps — pool, admission queue, structure
// cache, rank fabric, cinema databases, telemetry drops.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: make(map[string]*obs.Counter, len(meteredHandlers)),
		latency:  make(map[string]*obs.Histogram, len(meteredHandlers)),
		energyJ: reg.FloatCounter("vizpower_serve_energy_joules_total",
			"Modeled package energy of served frames (per-request X-Energy-Joules, accumulated)."),
		frames: reg.Counter("vizpower_serve_frames_total", "Frames rendered across /render and /cinema."),
	}
	for _, h := range meteredHandlers {
		m.requests[h] = reg.Counter("vizpower_serve_requests_total",
			"Requests accepted per handler.", obs.L("handler", h))
		m.latency[h] = reg.Histogram("vizpower_serve_request_seconds",
			"Request wall time per handler.", requestLatencyBounds, obs.L("handler", h))
	}
	s.met = m

	reg.GaugeFunc("vizpower_serve_uptime_seconds", "Daemon uptime.",
		func() float64 { return time.Since(s.t0).Seconds() })

	// Admission queue — the power-budget ledger.
	adm := func(f func(AdmissionStats) float64) func() float64 {
		return func() float64 { return f(s.adm.Stats()) }
	}
	reg.GaugeFunc("vizpower_admission_budget_watts", "Node power budget (0 = admission disabled).",
		adm(func(a AdmissionStats) float64 { return a.BudgetWatts }))
	reg.GaugeFunc("vizpower_admission_current_watts", "Sum of admitted grants' charge watts.",
		adm(func(a AdmissionStats) float64 { return a.CurrentWatts }))
	reg.GaugeFunc("vizpower_admission_peak_watts", "Peak concurrent admitted watts.",
		adm(func(a AdmissionStats) float64 { return a.PeakWatts }))
	reg.GaugeFunc("vizpower_admission_avg_watts", "Time-weighted average admitted watts.",
		adm(func(a AdmissionStats) float64 { return a.AvgWatts }))
	reg.GaugeFunc("vizpower_admission_waiting", "Requests parked in the admission queue now.",
		adm(func(a AdmissionStats) float64 { return float64(a.Waiting) }))
	reg.CounterFunc("vizpower_admission_admitted_total", "Grants admitted.",
		adm(func(a AdmissionStats) float64 { return float64(a.Admitted) }))
	reg.CounterFunc("vizpower_admission_queued_total", "Admissions that had to wait in the queue.",
		adm(func(a AdmissionStats) float64 { return float64(a.Queued) }))
	reg.CounterFunc("vizpower_admission_rejected_total", "Admissions rejected on a full queue (each a 429).",
		adm(func(a AdmissionStats) float64 { return float64(a.Rejected) }))
	for _, class := range []metrics.Class{metrics.PowerOpportunity, metrics.PowerSensitive} {
		reg.GaugeFunc("vizpower_admission_class_demand_watts",
			"Governor-measured demand charged to a never-run workload of the class (0 until SeedClassDemand).",
			func() float64 {
				s.wlMu.Lock()
				defer s.wlMu.Unlock()
				return s.classDemand[class]
			}, obs.L("class", class.String()))
	}

	// Derived-structure cache.
	cch := func(f func(CacheStats) float64) func() float64 {
		return func() float64 { return f(s.cache.Stats()) }
	}
	reg.GaugeFunc("vizpower_cache_entries", "Derived structures resident in the cache.",
		cch(func(c CacheStats) float64 { return float64(c.Entries) }))
	reg.CounterFunc("vizpower_cache_hits_total", "Cache hits.",
		cch(func(c CacheStats) float64 { return float64(c.Hits) }))
	reg.CounterFunc("vizpower_cache_misses_total", "Cache misses (structure builds).",
		cch(func(c CacheStats) float64 { return float64(c.Misses) }))
	reg.CounterFunc("vizpower_cache_waits_total", "Requests that joined an in-flight build.",
		cch(func(c CacheStats) float64 { return float64(c.Waits) }))

	// Worker pool — the par package already keeps padded per-worker
	// shards; the scrape folds them (Totals) instead of re-counting.
	reg.GaugeFunc("vizpower_pool_workers", "Worker goroutines in the pool.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("vizpower_pool_active_loops", "Loops on the dispatch queue now.",
		func() float64 { return float64(s.pool.Stats().ActiveLoops) })
	reg.CounterFunc("vizpower_pool_launches_total", "Parallel loop launches.",
		func() float64 { return float64(s.pool.Stats().Launches) })
	reg.CounterFunc("vizpower_pool_tasks_total", "Chunks executed.",
		func() float64 { return float64(s.pool.Stats().Totals().Tasks) })
	reg.CounterFunc("vizpower_pool_steals_total", "Chunks stolen across participants.",
		func() float64 { return float64(s.pool.Stats().Totals().Stolen) })
	reg.CounterFunc("vizpower_pool_idle_seconds_total", "Seconds parked workers spent waiting.",
		func() float64 { return float64(s.pool.Stats().Totals().IdleNs) / 1e9 })
	poolBounds := make([]float64, len(par.LatencyBoundsNs))
	for i, ns := range par.LatencyBoundsNs {
		poolBounds[i] = float64(ns) / 1e9
	}
	reg.HistogramFunc("vizpower_pool_chunk_seconds",
		"Chunk body latency from the pool's fixed buckets (sum not tracked).", poolBounds,
		func() ([]int64, float64) {
			lat := s.pool.Stats().Totals().Latency
			return lat[:], 0
		})

	// Rank fabric — process-lifetime counters, read at scrape.
	fab := func(f func(dist.FabricStats) float64) func() float64 {
		return func() float64 { return f(dist.FabricTotals()) }
	}
	reg.CounterFunc("vizpower_fabric_sends_total", "Fabric messages delivered.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Sends) }))
	reg.CounterFunc("vizpower_fabric_recvs_total", "Fabric messages received.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Recvs) }))
	reg.CounterFunc("vizpower_fabric_bytes_total", "Fabric payload bytes sent.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Bytes) }))
	reg.CounterFunc("vizpower_fabric_aborts_total", "Fabric cancellations.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Aborts) }))
	reg.CounterFunc("vizpower_fabric_stalls_total", "Sends that timed out on a full pair buffer.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Stalls) }))
	reg.CounterFunc("vizpower_fabric_retries_total", "Transient-fault retries.",
		fab(func(t dist.FabricStats) float64 { return float64(t.Retries) }))

	// Cinema databases.
	reg.GaugeFunc("vizpower_cinema_databases", "Open cinema databases.", func() float64 {
		s.cineMu.Lock()
		defer s.cineMu.Unlock()
		return float64(len(s.cine))
	})
	reg.GaugeFunc("vizpower_cinema_frames", "Frames across open cinema databases.", func() float64 {
		s.cineMu.Lock()
		defer s.cineMu.Unlock()
		var n int
		for _, db := range s.cine {
			n += db.db.Len()
		}
		return float64(n)
	})

	// Span loss, lane overflow included, must be visible.
	reg.GaugeFunc("vizpower_trace_spans_dropped", "Spans the tracer did not keep: full tracks and requests that found every lane busy.",
		func() float64 { return float64(s.tr.Dropped()) })

	// Governor decision log (SetGovernorLog).
	reg.GaugeFunc("vizpower_governor_log_decisions", "Cap decisions retained in the seeded governor log.",
		func() float64 {
			s.govMu.Lock()
			defer s.govMu.Unlock()
			return float64(len(s.govDecisions))
		})
	reg.GaugeFunc("vizpower_governor_log_dropped", "Cap decisions the seeded governor log overwrote.",
		func() float64 {
			s.govMu.Lock()
			defer s.govMu.Unlock()
			return float64(s.govDropped)
		})
}

// observeRequest records one accepted request's wall time.
func (m *serverMetrics) observeRequest(handler string, start time.Time) {
	m.latency[handler].Observe(time.Since(start).Seconds())
}

// SetGovernorLog installs a governed run's decision log for
// GET /debug/governor (typically power.Result.Decisions from the
// -govern calibration).
func (s *Server) SetGovernorLog(decisions []obs.Decision, dropped int64) {
	s.govMu.Lock()
	defer s.govMu.Unlock()
	s.govDecisions = append([]obs.Decision(nil), decisions...)
	s.govDropped = dropped
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}

// handleStats serves GET /stats: the same registry as JSON,
// {"requests": N, "series": {...}}. series holds every sample /metrics
// writes except histogram buckets, keyed by exposition name (a
// histogram gives its _sum and _count); requests is the sum of the
// per-handler request counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var requests int64
	for _, c := range s.met.requests {
		requests += c.Value()
	}
	writeJSON(w, map[string]any{"requests": requests, "series": s.met.reg.Values()})
}

// governorDebugResponse is the JSON body of /debug/governor.
type governorDebugResponse struct {
	Decisions []obs.Decision `json:"decisions"`
	Dropped   int64          `json:"dropped"`
}

// handleDebugGovernor serves GET /debug/governor: the seeded decision
// log as JSON (empty until SetGovernorLog, e.g. serve -govern).
func (s *Server) handleDebugGovernor(w http.ResponseWriter, _ *http.Request) {
	s.govMu.Lock()
	// Copied under the lock, and non-nil so an empty log encodes as [].
	resp := governorDebugResponse{Dropped: s.govDropped, Decisions: append([]obs.Decision{}, s.govDecisions...)}
	s.govMu.Unlock()
	writeJSON(w, resp)
}
