package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzParseRender throws query strings at the parsers behind /render and
// /cinema. The seed corpus (testdata/fuzz/FuzzParseRender: every
// documented parameter, the 1/256 transparent rounding, out-of-range and
// non-numeric values) replays in plain `go test`; `make fuzz` mutates it.
// Whatever arrives, parsing does not panic; a rejected query is a 400 from
// the handler before anything is admitted or built; an accepted one is
// inside the documented bounds, and its structure key is one of the at
// most 257 its (algorithm, size) can mint.
func FuzzParseRender(f *testing.F) {
	s := New(Options{Config: testConfig(), CinemaDir: f.TempDir()})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, cinema bool, query string) {
		path := "/render"
		if cinema {
			path = "/cinema"
		}
		// Built by hand: httptest.NewRequest panics on bytes a URL cannot
		// carry, and the parsers must survive whatever a server hands them.
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: query}}
		var (
			rr          *renderRequest
			from, count int
			err         error
		)
		if cinema {
			rr, from, count, err = s.parseCinema(r)
		} else {
			rr, err = s.parseRender(r)
		}
		if err != nil {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s?%s: parse error %q but status %d", path, query, err, rec.Code)
			}
			if st := s.Cache().Stats(); st.Misses != 0 {
				t.Fatalf("%s?%s: rejected, yet %d builds started", path, query, st.Misses)
			}
			return
		}
		in := func(name string, v, lo, hi int) {
			if v < lo || v > hi {
				t.Fatalf("%s?%s: accepted %s = %d outside [%d, %d]", path, query, name, v, lo, hi)
			}
		}
		in("size", rr.size, 8, maxSize)
		in("images", rr.images, 1, 4096)
		in("frame", rr.frame, 0, rr.images-1)
		in("width", rr.w, 8, 2048)
		in("height", rr.h, 8, 2048)
		if cinema {
			in("from", from, 0, rr.images-1)
			in("count", count, 1, rr.images-from)
		}
		k := rr.transparent * 256
		if k != math.Trunc(k) || k < 0 || k > 256 {
			t.Fatalf("%s?%s: transparent %v is not k/256 with k in [0, 256]", path, query, rr.transparent)
		}
		want := fmt.Sprintf("raytrace/%d", rr.size)
		if rr.alg == "volren" {
			want = fmt.Sprintf("volren/%d/tr%g", rr.size, k/256)
		} else if rr.alg != "raytrace" {
			t.Fatalf("%s?%s: accepted alg %q", path, query, rr.alg)
		}
		if got := rr.structureKey(); got != want {
			t.Fatalf("%s?%s: structure key %q, want %q", path, query, got, want)
		}
	})
}
