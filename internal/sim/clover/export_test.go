package clover

import "math"

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// MinDensity returns the minimum cell density (positivity check).
func (s *Sim) MinDensity() float64 {
	m := math.Inf(1)
	for _, r := range s.rho {
		if r < m {
			m = r
		}
	}
	return m
}

// StepCount returns the number of steps taken.
func (s *Sim) StepCount() int { return s.step }

// TotalMass returns the integral of density over the domain.
func (s *Sim) TotalMass() float64 {
	vol := s.h * s.h * s.h
	sum := 0.0
	for _, r := range s.rho {
		sum += r
	}
	return sum * vol
}

// TotalEnergy returns the integral of total energy over the domain.
func (s *Sim) TotalEnergy() float64 {
	vol := s.h * s.h * s.h
	sum := 0.0
	for _, e := range s.etot {
		sum += e
	}
	return sum * vol
}
