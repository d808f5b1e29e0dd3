package power

import "repro/internal/obs"

// Exported only to this package's tests: nothing else reads these, so
// they are declared here and not in the production tree.

// SelfTimeSec is the phase's traced self time: the sum of Stages' self
// time, in their order (0 when the phase ran untraced).
func (c Capture) SelfTimeSec() float64 {
	var s float64
	for _, st := range c.Stages {
		s += st.SelfSec()
	}
	return s
}

// keepDecisions shrinks g's decision log to n entries, keeping the
// newest of those it holds: a short run can then overflow it.
func (g *Governor) keepDecisions(n int) {
	held := g.decisions.items()
	g.decisions = ring[obs.Decision]{cap: n}
	for _, d := range held {
		g.decisions.push(d)
	}
}
