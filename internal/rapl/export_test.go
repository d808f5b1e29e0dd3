package rapl

import "repro/internal/msr"

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// EnergyCounter reads the raw 32-bit energy status value.
func (p *Package) EnergyCounter() uint64 {
	v, _ := p.file.Load(msr.MSR_PKG_ENERGY_STATUS)
	return v & 0xFFFFFFFF
}
