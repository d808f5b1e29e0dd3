package serve

import (
	"fmt"
	"net/http"
	"path/filepath"

	"repro/internal/cinema"
	"repro/internal/obs"
)

// cinemaDB is one open cinema database plus its identity; the daemon
// keeps one per (algorithm, size, resolution) and finalizes them all at
// Close.
type cinemaDB struct {
	db  *cinema.Database
	dir string
}

// cinemaFor returns (opening on first use) the shared database a
// request's orbit frames land in. Frames encode on the database's async
// queue so the HTTP handler returns as soon as the renders are done.
func (s *Server) cinemaFor(rr *renderRequest) (*cinemaDB, error) {
	key := fmt.Sprintf("%s-%d-%dx%d", rr.alg, rr.size, rr.w, rr.h)
	s.cineMu.Lock()
	defer s.cineMu.Unlock()
	if db, ok := s.cine[key]; ok {
		return db, nil
	}
	dir := filepath.Join(s.opts.CinemaDir, key)
	db, err := cinema.New(dir, key, rr.name)
	if err != nil {
		return nil, err
	}
	db.StartAsync(2, 64)
	c := &cinemaDB{db: db, dir: dir}
	s.cine[key] = c
	return c, nil
}

// cinemaResponse is the JSON body of /cinema.
type cinemaResponse struct {
	Dir    string   `json:"dir"`
	Cycle  int      `json:"cycle"`
	From   int      `json:"from"`
	Count  int      `json:"count"`
	Width  int      `json:"width"`
	Height int      `json:"height"`
	Frames []string `json:"frames"`
}

// parseCinema is parseRender plus /cinema's own parameters: the orbit
// segment [from, from+count), clipped to the orbit's end.
func (s *Server) parseCinema(r *http.Request) (rr *renderRequest, from, count int, err error) {
	if rr, err = s.parseRender(r); err != nil {
		return nil, 0, 0, err
	}
	q := r.URL.Query()
	if from, err = intParam(q.Get("from"), 0, 0, rr.images-1); err != nil {
		return nil, 0, 0, fmt.Errorf("from: %w", err)
	}
	if count, err = intParam(q.Get("count"), 8, 1, rr.images); err != nil {
		return nil, 0, 0, fmt.Errorf("count: %w", err)
	}
	return rr, from, min(count, rr.images-from), nil
}

// handleCinema serves GET /cinema: render the orbit segment
// [from, from+count) through the cached derived structure into the
// shared cinema database for that (algorithm, size, resolution). Each
// request claims a private cycle number, so concurrent segment requests
// interleave without colliding on frame names; PNG encoding rides the
// database's async queue. The manifest lands at Finalize (daemon
// shutdown) — the response lists the frame files the segment produced.
func (s *Server) handleCinema(w http.ResponseWriter, r *http.Request, track obs.Track) {
	rr, from, count, err := s.parseCinema(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	g, v, _ := s.admitBuild(w, r, track, rr.name, rr.size, rr.structureKey(), s.buildFrames(rr))
	if g == nil {
		return
	}
	defer g.Release()
	e := v.(*frameEntry)
	cdb, err := s.cinemaFor(rr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	cycle := cdb.db.NewCycle()
	resp := cinemaResponse{
		Dir:   cdb.dir,
		Cycle: cycle,
		From:  from,
		Count: count,
		Width: rr.w, Height: rr.h,
	}
	renderStart := s.tr.Begin()
	var segmentJ float64
	for i := from; i < from+count; i++ {
		// Each frame gets its own image: the database encodes it later,
		// on its queue.
		im, az, frameJ := s.renderFrame(e, rr, i, nil)
		segmentJ += frameJ
		encodeStart := s.tr.Begin()
		if err := cdb.db.AddAt(cycle, i, az, im); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.tr.End(track, "serve.encode", encodeStart)
		resp.Frames = append(resp.Frames, cinema.FrameName(cycle, i))
	}
	s.tr.End(track, "serve.render", renderStart)
	w.Header().Set("X-Energy-Joules", fmt.Sprintf("%.3f", segmentJ))
	writeJSON(w, resp)
}
