package advect

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// TestSeedRejectionShared: out-of-domain seeds are rejected by the one
// shared predicate (RejectSeeds / mesh.InDomain), and Run and
// RunReference produce bit-identical output and profiles over a seed
// list that mixes interior, boundary-exact, and out-of-domain seeds —
// in both fixed and adaptive modes. (dist.Advect's agreement over the
// same seeds is covered in internal/dist.)
func TestSeedRejectionShared(t *testing.T) {
	g := shearFlow(t, 12)
	seeds := []mesh.Vec3{
		{0.5, 0.5, 0.5},                   // interior
		{-0.25, 0.5, 0.5},                 // outside low x
		{0.5, 1.5, 0.5},                   // outside high y
		{2, 2, 2},                         // far outside
		{0, 0, 0},                         // exact low corner (in domain)
		{1, 1, 1},                         // exact high corner (in domain)
		{0.5, 0.5, math.Nextafter(1, 2)},  // one ulp past the face
		{math.Nextafter(0, -1), 0.5, 0.5}, // one ulp before the face
		{0.25, 0.75, 0.125},
	}
	sampler, err := mesh.NewVectorSampler(g, "velocity")
	if err != nil {
		t.Fatal(err)
	}
	wantDead := make([]bool, len(seeds))
	for i, p := range seeds {
		_, ok := sampler.Sample(p)
		wantDead[i] = !ok
	}
	dead := RejectSeeds(g, seeds, nil)
	for i := range seeds {
		if dead[i] != wantDead[i] {
			t.Errorf("seed %d %v: RejectSeeds=%v, sampler rejects=%v", i, seeds[i], dead[i], wantDead[i])
		}
	}
	if !dead[1] || !dead[2] || !dead[3] || !dead[6] || !dead[7] {
		t.Fatalf("out-of-domain seeds not all rejected: %v", dead)
	}
	if dead[0] || dead[4] || dead[5] {
		t.Fatalf("in-domain seeds wrongly rejected: %v", dead)
	}

	for _, adaptive := range []bool{false, true} {
		f := New(Options{NumParticles: len(seeds), NumSteps: 200, StepLength: 0.004,
			Adaptive: adaptive, Tolerance: 1e-6})
		pool := par.NewPool(2)
		ref := f.runReference(g, viz.NewExec(pool), seeds)
		got := f.run(g, viz.NewExec(pool), seeds)
		assertGolden(t, ref, got)
	}
}
