package advect

import "math"

// Adaptive integration uses the embedded Bogacki–Shampine 3(2) pair: a
// third-order step with a second-order error estimate, growing the step
// through smooth flow and shrinking it where the field bends. The paper's
// study uses fixed-step RK4 (and so does this package by default); the
// adaptive mode is an extension for users who care about trajectory
// accuracy per sample rather than a fixed cost per particle. The trial
// step is BS23Step (kernel.go) under advanceAdaptive (advance.go); this
// file keeps the step-size controller.

// controller is the standard I-controller for a third-order method.
func controller(h, errEst, tol, hMin, hMax float64) float64 {
	if errEst <= 0 {
		return math.Min(h*5, hMax)
	}
	factor := 0.9 * math.Cbrt(tol/errEst)
	if factor < 0.2 {
		factor = 0.2
	}
	if factor > 5 {
		factor = 5
	}
	h *= factor
	if h < hMin {
		h = hMin
	}
	if h > hMax {
		h = hMax
	}
	return h
}
