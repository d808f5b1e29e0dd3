package advect

import (
	"math"

	"repro/internal/mesh"
)

// The integration steps under Advance (advance.go): one fixed RK4 step
// and one embedded Bogacki–Shampine 3(2) trial step over a
// mesh.VectorSampler — whole-grid for Run, one block's for dist.Advect.
// The golden tests hold Run bit-identical to the test oracle
// (runReference in reference_test.go), which pins RK4Step to the
// oracle's exact operation order; dist.Advect's bit-identity to Run
// then follows from driving the same Advance.
//
// Positions and stage velocities stay in float64 locals, and the steps
// take and return scalars: a Vec3 crosses a non-inlined call through
// memory, and these calls run four samples per step. Each component is
// the Vec3 arithmetic of the oracles in kernel_oracle_test.go, in the
// same order — p + (h/2)·k, ((k1 + 2·k2) + 2·k3 + k4)·(h/6) — so the
// bits are the same.

// RK4Step advances (px, py, pz) by one fixed step h of classic
// fourth-order Runge–Kutta. It returns the next position, the velocity
// at p (the speed scalar recorded on streamlines), and ok=false when any
// of the four stage samples left the domain — in which case next is p
// unchanged, exactly as the reference integrator behaves.
func RK4Step(s *mesh.VectorSampler, px, py, pz, h float64) (nx, ny, nz, vx, vy, vz float64, ok bool) {
	h2 := h / 2
	k1x, k1y, k1z, ok1 := s.At(px, py, pz)
	k2x, k2y, k2z, ok2 := s.At(px+h2*k1x, py+h2*k1y, pz+h2*k1z)
	k3x, k3y, k3z, ok3 := s.At(px+h2*k2x, py+h2*k2y, pz+h2*k2z)
	k4x, k4y, k4z, ok4 := s.At(px+h*k3x, py+h*k3y, pz+h*k3z)
	if !(ok1 && ok2 && ok3 && ok4) {
		return px, py, pz, k1x, k1y, k1z, false
	}
	h6 := h / 6
	nx = px + h6*(k1x+2*k2x+2*k3x+k4x)
	ny = py + h6*(k1y+2*k2y+2*k3y+k4y)
	nz = pz + h6*(k1z+2*k2z+2*k3z+k4z)
	return nx, ny, nz, k1x, k1y, k1z, true
}

// BS23Step attempts one Bogacki–Shampine 3(2) trial step of size h from
// (px, py, pz): the third-order solution, the velocity at p, the
// embedded second-order error estimate, and ok=false when any stage
// sample left the domain (next is then p unchanged). The caller accepts
// or rejects against its tolerance and reshapes h with controller.
func BS23Step(s *mesh.VectorSampler, px, py, pz, h float64) (nx, ny, nz, vx, vy, vz, errEst float64, ok bool) {
	h2, h34 := h/2, 3*h/4
	k1x, k1y, k1z, ok1 := s.At(px, py, pz)
	k2x, k2y, k2z, ok2 := s.At(px+h2*k1x, py+h2*k1y, pz+h2*k1z)
	k3x, k3y, k3z, ok3 := s.At(px+h34*k2x, py+h34*k2y, pz+h34*k2z)
	if !(ok1 && ok2 && ok3) {
		return px, py, pz, k1x, k1y, k1z, 0, false
	}
	// Third-order solution.
	a1, a2, a3 := 2*h/9, h/3, 4*h/9
	nx = px + a1*k1x + a2*k2x + a3*k3x
	ny = py + a1*k1y + a2*k2y + a3*k3y
	nz = pz + a1*k1z + a2*k2z + a3*k3z
	k4x, k4y, k4z, ok4 := s.At(nx, ny, nz)
	if !ok4 {
		return px, py, pz, k1x, k1y, k1z, 0, false
	}
	// Embedded second-order solution.
	b1, b2, b3, b4 := 7*h/24, h/4, h/3, h/8
	ex := nx - (px + b1*k1x + b2*k2x + b3*k3x + b4*k4x)
	ey := ny - (py + b1*k1y + b2*k2y + b3*k3y + b4*k4y)
	ez := nz - (pz + b1*k1z + b2*k2z + b3*k3z + b4*k4z)
	return nx, ny, nz, k1x, k1y, k1z, norm(ex, ey, ez), true
}

// norm is Vec3.Norm's arithmetic on three scalars.
func norm(x, y, z float64) float64 { return math.Sqrt(x*x + y*y + z*z) }

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
