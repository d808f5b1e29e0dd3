package advect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// The steppers as they were first written, over mesh.Vec3 values: the
// oracles RK4Step and BS23Step are held to bit for bit. sampleVec is the
// one place they touch the sampler.

func sampleVec(s *mesh.VectorSampler, p mesh.Vec3) (mesh.Vec3, bool) {
	vx, vy, vz, ok := s.At(p[0], p[1], p[2])
	return mesh.Vec3{vx, vy, vz}, ok
}

func rk4StepVec(s *mesh.VectorSampler, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, ok bool) {
	k1, ok1 := sampleVec(s, p)
	k2, ok2 := sampleVec(s, p.Add(k1.Scale(h/2)))
	k3, ok3 := sampleVec(s, p.Add(k2.Scale(h/2)))
	k4, ok4 := sampleVec(s, p.Add(k3.Scale(h)))
	if !(ok1 && ok2 && ok3 && ok4) {
		return p, k1, false
	}
	delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
	return p.Add(delta), k1, true
}

func bs23StepVec(s *mesh.VectorSampler, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, errEst float64, ok bool) {
	k1, ok1 := sampleVec(s, p)
	k2, ok2 := sampleVec(s, p.Add(k1.Scale(h/2)))
	k3, ok3 := sampleVec(s, p.Add(k2.Scale(3*h/4)))
	if !(ok1 && ok2 && ok3) {
		return p, k1, 0, false
	}
	// Third-order solution.
	next = p.Add(k1.Scale(2 * h / 9)).Add(k2.Scale(h / 3)).Add(k3.Scale(4 * h / 9))
	k4, ok4 := sampleVec(s, next)
	if !ok4 {
		return p, k1, 0, false
	}
	// Embedded second-order solution.
	low := p.Add(k1.Scale(7 * h / 24)).Add(k2.Scale(h / 4)).Add(k3.Scale(h / 3)).Add(k4.Scale(h / 8))
	errEst = next.Sub(low).Norm()
	return next, k1, errEst, true
}

// stepResult is one trial step of either stepper, by float bits.
type stepResult struct {
	next, v0 [3]uint64
	errEst   uint64
	ok       bool
	escaped  bool
}

func bitsOf(v mesh.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2])}
}

// stepperProbes is a seeded cloud of step origins: inside the domain, on
// its upper faces (the clamp path), one ulp outside them, and a little
// beyond the cube.
func stepperProbes(rng *rand.Rand, n int) []mesh.Vec3 {
	pts := make([]mesh.Vec3, 0, n+12)
	for i := 0; i < n; i++ {
		p := mesh.Vec3{rng.Float64()*1.1 - 0.05, rng.Float64()*1.1 - 0.05, rng.Float64()*1.1 - 0.05}
		if i%7 == 0 {
			p[i%3] = 1 // on an upper face
		}
		pts = append(pts, p)
	}
	up := math.Nextafter(1, 2)
	return append(pts,
		mesh.Vec3{1, 1, 1}, mesh.Vec3{0, 0, 0}, mesh.Vec3{1, 0.5, 0.5}, mesh.Vec3{0.5, 1, 0.5},
		mesh.Vec3{0.5, 0.5, 1}, mesh.Vec3{up, 0.5, 0.5}, mesh.Vec3{0.5, 0.5, up},
		mesh.Vec3{0.999, 0.999, 0.999}, mesh.Vec3{0.5, 0.5, 0.5})
}

// stepperGrid is a swirling field whose speed is O(1), so a step of
// h = 0.2 carries stage samples well past the faces.
func stepperGrid(t *testing.T, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		v[id] = mesh.Vec3{
			-(p[1] - 0.5) + 0.3*math.Sin(4*p[2]),
			(p[0] - 0.5) * (1 + p[2]),
			0.6 * math.Cos(5*p[0]*p[1]),
		}
	}
	return g
}

// TestSteppersMatchVec3Oracles holds RK4Step and BS23Step bit-equal to
// the Vec3 oracles above, chaining steps from every probe while they
// succeed. Each side has its own copy of the sampler, so the last-cell
// cache and the Escaped latch must evolve identically too. Grids: 16
// (power-of-two spacing, the reciprocal path) and 24 and 40 (the
// division path, the sizes a resampled request hits), whole-grid and
// one-block samplers; steps up to 0.2 leave the domain or the block
// mid-step.
func TestSteppersMatchVec3Oracles(t *testing.T) {
	type stepper struct {
		name   string
		got    func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult
		oracle func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult
	}
	steppers := []stepper{
		{"RK4Step",
			func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult {
				nx, ny, nz, vx, vy, vz, ok := RK4Step(s, p[0], p[1], p[2], h)
				return stepResult{next: bitsOf(mesh.Vec3{nx, ny, nz}), v0: bitsOf(mesh.Vec3{vx, vy, vz}), ok: ok, escaped: s.Escaped()}
			},
			func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult {
				next, v0, ok := rk4StepVec(s, p, h)
				return stepResult{next: bitsOf(next), v0: bitsOf(v0), ok: ok, escaped: s.Escaped()}
			}},
		{"BS23Step",
			func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult {
				nx, ny, nz, vx, vy, vz, errEst, ok := BS23Step(s, p[0], p[1], p[2], h)
				return stepResult{next: bitsOf(mesh.Vec3{nx, ny, nz}), v0: bitsOf(mesh.Vec3{vx, vy, vz}), errEst: math.Float64bits(errEst), ok: ok, escaped: s.Escaped()}
			},
			func(s *mesh.VectorSampler, p mesh.Vec3, h float64) stepResult {
				next, v0, errEst, ok := bs23StepVec(s, p, h)
				return stepResult{next: bitsOf(next), v0: bitsOf(v0), errEst: math.Float64bits(errEst), ok: ok, escaped: s.Escaped()}
			}},
	}
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{16, 24, 40} {
		g := stepperGrid(t, n)
		whole, err := mesh.NewVectorSampler(g, "velocity")
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := mesh.BlockDecompose(g, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		block, err := mesh.NewBlockVectorSampler(blocks[1], "velocity")
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []struct {
			name string
			s    *mesh.VectorSampler
		}{{"whole", whole}, {"block", block}} {
			for _, st := range steppers {
				var steps, failed, escapes int
				for _, h := range []float64{0.002, 0.02, 0.2} {
					for _, start := range stepperProbes(rng, 300) {
						sGot, sWant := *proto.s, *proto.s
						p := start
						for i := 0; i < 12; i++ {
							got := st.got(&sGot, p, h)
							want := st.oracle(&sWant, p, h)
							if got != want {
								t.Fatalf("n=%d %s %s h=%v from %v, step %d at %v: got %+v, oracle %+v",
									n, proto.name, st.name, h, start, i, p, got, want)
							}
							steps++
							if want.escaped {
								escapes++
							}
							if !want.ok {
								failed++
								break
							}
							p = mesh.Vec3{
								math.Float64frombits(want.next[0]),
								math.Float64frombits(want.next[1]),
								math.Float64frombits(want.next[2]),
							}
						}
					}
				}
				// The probes must reach every branch they are meant to.
				if failed == 0 || steps-failed < steps/2 {
					t.Fatalf("n=%d %s %s: %d steps, %d failed", n, proto.name, st.name, steps, failed)
				}
				if (proto.name == "block") != (escapes > 0) {
					t.Fatalf("n=%d %s %s: %d steps ended escaped", n, proto.name, st.name, escapes)
				}
			}
		}
	}
}
