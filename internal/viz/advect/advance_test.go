package advect

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// driveSerial is the smallest possible driver of Advance: every live
// seed is advanced burst after burst into one trail until it retires,
// and the trail goes through Assemble like both production drivers'.
// prepare may set a.burst or a.Leave; a "destination" is simply resumed.
func driveSerial(t *testing.T, f *Filter, g *mesh.UniformGrid, starts []mesh.Vec3, prepare func(*Advancer, *mesh.VectorSampler)) (*mesh.LineSet, Tally) {
	t.Helper()
	s, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		t.Fatal(err)
	}
	a := f.Advancer(g)
	prepare(a, s)
	ps, tally := a.Seed(starts, nil)
	trails := make([]Trail, 1)
	for i := range ps {
		for Advance(a, s, &ps[i], &trails[0], &tally) != Retired {
		}
	}
	lines, _ := Assemble(trails, nil)
	return lines, tally
}

// TestAssembleTrailInvariance: which trail holds a segment — one arena,
// two, five, in any order — never changes the assembled LineSet. That
// is what lets Run's per-worker arenas and dist.Advect's per-rank
// arenas share one assembly rule.
func TestAssembleTrailInvariance(t *testing.T) {
	g := shearFlow(t, 12)
	// Two dead seeds, and a corner seed that leaves on its first step: a
	// one-point particle the qualifying rule must drop.
	starts := append(seeds(g.Bounds(), 27), mesh.Vec3{2, 2, 2}, mesh.Vec3{1, 1, 1}, mesh.Vec3{-1, 0.5, 0.5})
	f := New(Options{NumParticles: len(starts), NumSteps: 90, StepLength: 0.004})
	s, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	var want *mesh.LineSet
	for _, nTrails := range []int{1, 2, 5} {
		a := f.Advancer(g)
		a.burst = 7 // many segments per particle
		ps, _ := a.Seed(starts, nil)
		trails := make([]Trail, nTrails)
		var tally Tally
		// Round-robin over the particles, each burst into a trail drawn
		// at random: a particle's segments scatter over all of them.
		retired := make([]bool, len(ps))
		for live := len(ps); live > 0; {
			for i := range ps {
				if !retired[i] && Advance(a, s, &ps[i], &trails[next(nTrails)], &tally) == Retired {
					retired[i] = true
					live--
				}
			}
		}
		for i := len(trails) - 1; i > 0; i-- { // shuffled trail order
			j := next(i + 1)
			trails[i], trails[j] = trails[j], trails[i]
		}
		got, _ := Assemble(trails, nil)
		if err := got.Validate(); err != nil {
			t.Fatalf("%d trails: %v", nTrails, err)
		}
		if want == nil {
			want = got
			if want.NumLines() != 27 {
				t.Fatalf("%d lines, want the 27 lattice seeds' (corner seed dropped)", want.NumLines())
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d trails: assembled LineSet differs from the one-trail assembly", nTrails)
		}
	}
}

// TestBurstInvariance: a trajectory is a pure function of the particle
// state, so where a burst ends — after 1, 7, or 256 steps, or wherever a
// region test interrupts it — changes neither the streamline bits nor
// the tally, and all of them match Run.
func TestBurstInvariance(t *testing.T) {
	g := shearFlow(t, 12)
	starts := append(seeds(g.Bounds(), 27), mesh.Vec3{2, 2, 2}) // one dead seed
	for _, adaptive := range []bool{false, true} {
		f := New(Options{NumParticles: len(starts), NumSteps: 300, StepLength: 0.004,
			Adaptive: adaptive, Tolerance: 1e-7})
		want := f.run(g, viz.NewExec(par.NewPool(2)), starts)
		variants := []struct {
			name    string
			prepare func(*Advancer, *mesh.VectorSampler)
		}{
			{"burst=1", func(a *Advancer, _ *mesh.VectorSampler) { a.burst = 1 }},
			{"burst=7", func(a *Advancer, _ *mesh.VectorSampler) { a.burst = 7 }},
			{"burst=256", func(a *Advancer, _ *mesh.VectorSampler) { a.burst = 256 }},
			// Odd cell layers belong to "someone else": every step taken
			// there ends the burst.
			{"leave", func(a *Advancer, s *mesh.VectorSampler) {
				a.Leave = func(p mesh.Vec3) int32 {
					if layer, ok := s.CellLayer(p); ok && layer%2 == 1 {
						return 0
					}
					return Resident
				}
			}},
		}
		for _, v := range variants {
			lines, tally := driveSerial(t, f, g, starts, v.prepare)
			var rec ops.Recorder
			tally.Record(&rec)
			rec.WorkingSet(tally.WorkingSet(g.NumPoints(), uint64(lines.TotalPoints())))
			got := &viz.Result{Lines: lines, Profile: rec.Profile()}
			t.Run(fmt.Sprintf("adaptive=%v/%s", adaptive, v.name), func(t *testing.T) { assertGolden(t, got, want) })
		}
	}
}

// TestSeedPermutationInvariance is the metamorphic property: shuffling
// the seed list permutes the streamlines and changes nothing else — each
// seed's line keeps its bits and the profile is the same.
func TestSeedPermutationInvariance(t *testing.T) {
	g := shearFlow(t, 12)
	starts := append(seeds(g.Bounds(), 40), mesh.Vec3{-1, 0.5, 0.5})
	shuffled := append([]mesh.Vec3(nil), starts...)
	rng := uint64(12345)
	for i := len(shuffled) - 1; i > 0; i-- {
		rng = rng*6364136223846793005 + 1442695040888963407
		j := int((rng >> 33) % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for _, adaptive := range []bool{false, true} {
		f := New(Options{NumParticles: len(starts), NumSteps: 400, StepLength: 0.003, Adaptive: adaptive})
		a := f.run(g, viz.NewExec(par.NewPool(4)), starts)
		b := f.run(g, viz.NewExec(par.NewPool(4)), shuffled)
		if a.Profile != b.Profile {
			t.Fatalf("adaptive=%v: profile depends on seed order:\n%+v\n%+v", adaptive, a.Profile, b.Profile)
		}
		if a.Lines.NumLines() != b.Lines.NumLines() || a.Lines.NumLines() == 0 {
			t.Fatalf("adaptive=%v: %d lines vs %d after shuffling", adaptive, a.Lines.NumLines(), b.Lines.NumLines())
		}
		bySeed := make(map[mesh.Vec3]int) // a line starts at its seed
		for li := 0; li < b.Lines.NumLines(); li++ {
			lo, _ := b.Lines.Line(li)
			bySeed[b.Lines.Points[lo]] = li
		}
		for li := 0; li < a.Lines.NumLines(); li++ {
			alo, ahi := a.Lines.Line(li)
			bl, ok := bySeed[a.Lines.Points[alo]]
			if !ok {
				t.Fatalf("adaptive=%v: line of seed %v vanished after shuffling", adaptive, a.Lines.Points[alo])
			}
			blo, bhi := b.Lines.Line(bl)
			if ahi-alo != bhi-blo {
				t.Fatalf("adaptive=%v: line of seed %v has %d points, %d after shuffling", adaptive, a.Lines.Points[alo], ahi-alo, bhi-blo)
			}
			for k := 0; k < ahi-alo; k++ {
				if a.Lines.Points[alo+k] != b.Lines.Points[blo+k] || a.Lines.Scalars[alo+k] != b.Lines.Scalars[blo+k] {
					t.Fatalf("adaptive=%v: line of seed %v differs at point %d after shuffling", adaptive, a.Lines.Points[alo], k)
				}
			}
		}
	}
}
