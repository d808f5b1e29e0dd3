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
