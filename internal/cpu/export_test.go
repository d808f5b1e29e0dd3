package cpu

// Exported only to this package's tests: Execution.UnderCap walks the
// same rungs without building the list.

// FreqLadder returns the ascending list of selectable frequencies in GHz.
func (s Spec) FreqLadder() []float64 {
	var f []float64
	for g := s.MinGHz; g <= s.AllCoreTurboGHz+1e-9; g += s.StepGHz {
		f = append(f, g)
	}
	return f
}
