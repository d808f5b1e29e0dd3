package advect

import "repro/internal/mesh"

// The integration steps under Advance (advance.go): one fixed RK4 step
// and one embedded Bogacki–Shampine 3(2) trial step over a
// mesh.VectorSampler — whole-grid for Run, one block's for dist.Advect.
// The golden tests hold Run bit-identical to the test oracle
// (runReference in reference_test.go), which pins RK4Step to the
// oracle's exact operation order; dist.Advect's bit-identity to Run
// then follows from driving the same Advance.

// RK4Step advances p by one fixed step h of classic fourth-order
// Runge–Kutta. It returns the next position, the velocity at p (the
// speed scalar recorded on streamlines), and ok=false when any of the
// four stage samples left the domain — in which case next is p
// unchanged, exactly as the reference integrator behaves.
func RK4Step(s *mesh.VectorSampler, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, ok bool) {
	k1, ok1 := s.Sample(p)
	k2, ok2 := s.Sample(p.Add(k1.Scale(h / 2)))
	k3, ok3 := s.Sample(p.Add(k2.Scale(h / 2)))
	k4, ok4 := s.Sample(p.Add(k3.Scale(h)))
	if !(ok1 && ok2 && ok3 && ok4) {
		return p, k1, false
	}
	delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
	return p.Add(delta), k1, true
}

// BS23Step attempts one Bogacki–Shampine 3(2) trial step of size h:
// the third-order solution, the velocity at p, the embedded
// second-order error estimate, and ok=false when any stage sample left
// the domain (next is then p unchanged). The caller accepts or rejects
// against its tolerance and reshapes h with controller.
func BS23Step(s *mesh.VectorSampler, p mesh.Vec3, h float64) (next, v0 mesh.Vec3, errEst float64, ok bool) {
	k1, ok1 := s.Sample(p)
	k2, ok2 := s.Sample(p.Add(k1.Scale(h / 2)))
	k3, ok3 := s.Sample(p.Add(k2.Scale(3 * h / 4)))
	if !(ok1 && ok2 && ok3) {
		return p, k1, 0, false
	}
	// Third-order solution.
	next = p.Add(k1.Scale(2 * h / 9)).Add(k2.Scale(h / 3)).Add(k3.Scale(4 * h / 9))
	k4, ok4 := s.Sample(next)
	if !ok4 {
		return p, k1, 0, false
	}
	// Embedded second-order solution.
	low := p.Add(k1.Scale(7 * h / 24)).Add(k2.Scale(h / 4)).Add(k3.Scale(h / 3)).Add(k4.Scale(h / 8))
	errEst = next.Sub(low).Norm()
	return next, k1, errEst, true
}

// AdaptiveStepBounds returns the [hMin, hMax] clamp range every
// adaptive integration path derives from the initial step h0.
func AdaptiveStepBounds(h0 float64) (hMin, hMax float64) {
	return h0 / 64, h0 * 16
}

// SeedPoints returns the filter's deterministic jittered-lattice seed
// positions for n particles through b — the shared seed stream, so the
// distributed path advects exactly the particles Run would.
func SeedPoints(b mesh.Bounds, n int) []mesh.Vec3 {
	return seeds(b, n)
}

// Options returns the filter's normalized configuration.
func (f *Filter) Options() Options { return f.opts }
