package power

// Exported only to this package's tests: nothing else reads it, so it is
// declared here and not in the production tree.

// SelfTimeSec is the phase's traced self time: the sum of Stages' self
// time, in their order (0 when the phase ran untraced).
func (c Capture) SelfTimeSec() float64 {
	var s float64
	for _, st := range c.Stages {
		s += st.SelfSec()
	}
	return s
}
