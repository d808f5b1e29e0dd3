package par

import "repro/internal/obs"

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// Telemetry returns the tracer attached by Instrument, or nil.
func (p *Pool) Telemetry() *obs.Tracer {
	if in := p.instr.Load(); in != nil {
		return in.tracer
	}
	return nil
}
