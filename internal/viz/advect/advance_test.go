package advect

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// driveSerial is the smallest possible driver of Advance: every live
// seed is advanced burst after burst into one trail until it retires.
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
	sc := &advectScratch{arenas: make([]Trail, 1), counts: make([]int32, len(starts))}
	for i := range ps {
		for Advance(a, s, &ps[i], &sc.arenas[0], &tally) != Retired {
		}
	}
	lines, _ := assemble(sc, len(starts))
	return lines, tally
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
