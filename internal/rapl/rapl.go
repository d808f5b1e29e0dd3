// Package rapl models Intel's Running Average Power Limit for one
// processor package, the power-capping mechanism the paper uses (§III-A):
// software writes a watt limit into MSR_PKG_POWER_LIMIT and the processor
// adjusts its operating frequency to honor it, while software samples the
// wrapping 32-bit MSR_PKG_ENERGY_STATUS counter to observe actual energy
// use. The register encodings follow the Intel SDM; the frequency response
// itself lives in internal/cpu.
package rapl

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/msr"
)

// Unit exponents published in MSR_RAPL_POWER_UNIT: power in 1/8 W steps,
// energy in 61 µJ steps (2^-14 J, the Xeon E5 v4 value), time in ~1 ms
// steps.
const (
	powerUnitExp  = 3  // power unit = 1/2^3 W = 0.125 W
	energyUnitExp = 14 // energy unit = 2^-14 J ≈ 61 µJ
	timeUnitExp   = 10 // time unit = 2^-10 s ≈ 0.98 ms
)

// PowerLimit MSR field layout (package power limit #1).
const (
	limitEnableBit = 1 << 15
	limitClampBit  = 1 << 16
)

// Package is one RAPL power domain (one socket) backed by an MSR file.
type Package struct {
	file *msr.File
	spec cpu.Spec
	// energyFrac holds the sub-unit energy remainder between updates so
	// long runs accumulate without quantization drift.
	energyFrac float64
}

// NewPackage initializes the RAPL registers of file for the given
// processor: units, power info (TDP and capping range), and the default
// limit (TDP, enabled).
func NewPackage(file *msr.File, spec cpu.Spec) *Package {
	p := &Package{file: file, spec: spec}
	file.Store(msr.MSR_RAPL_POWER_UNIT,
		powerUnitExp|energyUnitExp<<8|timeUnitExp<<16)
	// POWER_INFO: thermal spec power (bits 0-14), min power (16-30),
	// max power (32-46), all in power units.
	tdp := uint64(spec.TDPWatts * 8)
	minP := uint64(spec.MinCapWatts * 8)
	file.Store(msr.MSR_PKG_POWER_INFO, tdp|minP<<16|tdp<<32)
	file.Store(msr.MSR_PKG_ENERGY_STATUS, 0)
	if err := p.SetLimitWatts(spec.TDPWatts); err != nil {
		// Unreachable: NewPackage writes through the hardware side.
		panic(err)
	}
	return p
}

// File returns the backing MSR file (for gated software access).
func (p *Package) File() *msr.File { return p.file }

// Spec returns the processor specification of this domain.
func (p *Package) Spec() cpu.Spec { return p.spec }

// SetLimitWatts writes the package power limit register. Limits are
// quantized to the 1/8 W power unit and stored with the enable and clamp
// bits set, a ~10 ms time window, exactly as the paper's harness programs
// RAPL. Non-positive or non-finite limits are rejected.
func (p *Package) SetLimitWatts(w float64) error {
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("rapl: invalid power limit %v W", w)
	}
	units := uint64(w*8 + 0.5)
	if units > 0x7FFF {
		units = 0x7FFF
	}
	val := units | limitEnableBit | limitClampBit | (0xA << 17)
	p.file.Store(msr.MSR_PKG_POWER_LIMIT, val)
	return nil
}

// LimitWatts decodes the current package power limit. If the enable bit is
// clear, the cap is unenforced and the spec TDP is returned.
func (p *Package) LimitWatts() float64 {
	v, _ := p.file.Load(msr.MSR_PKG_POWER_LIMIT)
	if v&limitEnableBit == 0 {
		return p.spec.TDPWatts
	}
	return float64(v&0x7FFF) / 8
}

// EffectiveCapWatts is the limit after hardware clamping to the
// enforceable floor — the cap the governor actually honors.
func (p *Package) EffectiveCapWatts() float64 {
	w := p.LimitWatts()
	if w < p.spec.MinCapWatts {
		return p.spec.MinCapWatts
	}
	return w
}

// AccumulateEnergy adds joules to the wrapping energy-status counter,
// carrying the sub-unit remainder. The hardware side calls this as
// simulated time advances.
func (p *Package) AccumulateEnergy(joules float64) {
	if joules <= 0 {
		return
	}
	u := joules*math.Exp2(energyUnitExp) + p.energyFrac
	whole := math.Floor(u)
	p.energyFrac = u - whole
	p.file.Add32(msr.MSR_PKG_ENERGY_STATUS, uint64(whole))
}

// EnergyUnitJoules returns the joules represented by one counter unit.
func EnergyUnitJoules() float64 { return math.Exp2(-energyUnitExp) }

// EnergyDeltaJoules converts a pair of raw counter readings (after, then
// before) into joules, handling 32-bit wraparound — the arithmetic every
// RAPL sampler must get right.
func EnergyDeltaJoules(before, after uint64) float64 {
	d := (after - before) & 0xFFFFFFFF
	return float64(d) * EnergyUnitJoules()
}

// Govern runs the RAPL frequency governor for an analyzed execution under
// the currently-programmed limit, returning the modeled outcome.
func (p *Package) Govern(e cpu.Execution) cpu.CapResult {
	return e.UnderCap(p.EffectiveCapWatts())
}
