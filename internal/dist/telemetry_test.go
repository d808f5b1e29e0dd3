package dist

import (
	"testing"

	"repro/internal/obs"
)

// TestRankOpSpans: on a traced fabric every Send/Recv/Barrier/Gather
// records a span on the issuing rank's track, so a composite stalled on
// a peer shows up as a long span on the blocked rank.
func TestRankOpSpans(t *testing.T) {
	const n = 4
	tr := obs.NewTracer()
	comm, err := NewCommWith(n, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(func(ep *Endpoint) error {
		if err := ep.Barrier(7); err != nil {
			return err
		}
		_, err := ep.Gather(0, 8, []float64{float64(ep.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	perRank := make([]map[string]int, n)
	rankOf := map[obs.Track]int{}
	for r := range perRank {
		perRank[r] = map[string]int{}
		rankOf[tr.Rank(r)] = r
	}
	for _, s := range tr.Spans() {
		r, ok := rankOf[s.Track]
		if !ok {
			t.Fatalf("span %q on unexpected track %v", s.Name, s.Track)
		}
		perRank[r][s.Name]++
	}
	for r := 0; r < n; r++ {
		if perRank[r]["dist.barrier"] != 1 {
			t.Errorf("rank %d: %d barrier spans, want 1", r, perRank[r]["dist.barrier"])
		}
		if perRank[r]["dist.gather"] != 1 {
			t.Errorf("rank %d: %d gather spans, want 1", r, perRank[r]["dist.gather"])
		}
	}
	// Root's gather span must contain its per-peer recv spans; non-root
	// gathers contain one send.
	if perRank[0]["dist.recv"] < n-1 {
		t.Errorf("root recorded %d recv spans, want >= %d", perRank[0]["dist.recv"], n-1)
	}
	for r := 1; r < n; r++ {
		if perRank[r]["dist.send"] < 1 {
			t.Errorf("rank %d recorded no send span", r)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d spans", tr.Dropped())
	}
}

// TestRankOpSpansNestInGather: the containment structure holds — a
// nested Send/Recv span lies inside the Gather span that issued it.
func TestRankOpSpansNestInGather(t *testing.T) {
	const n = 2
	tr := obs.NewTracer()
	comm, err := NewCommWith(n, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.Run(func(ep *Endpoint) error {
		_, err := ep.Gather(0, 1, []float64{1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		track := tr.Rank(r)
		var gather *obs.Span
		for _, s := range tr.Spans() {
			if s.Track == track && s.Name == "dist.gather" {
				g := s
				gather = &g
			}
		}
		if gather == nil {
			t.Fatalf("rank %d has no gather span", r)
		}
		for _, s := range tr.Spans() {
			if s.Track == track && (s.Name == "dist.send" || s.Name == "dist.recv") {
				if s.Start < gather.Start || s.End() > gather.End() {
					t.Errorf("rank %d: %s [%d,%d) outside gather [%d,%d)",
						r, s.Name, s.Start, s.End(), gather.Start, gather.End())
				}
			}
		}
	}
}

// TestUntracedFabricRecordsNothing: the zero-value Options fabric must
// not require or touch a tracer.
func TestUntracedFabricRecordsNothing(t *testing.T) {
	comm, err := NewComm(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.Run(func(ep *Endpoint) error {
		return ep.Barrier(1)
	}); err != nil {
		t.Fatal(err)
	}
}
