// Package perfctr models the performance-counter methodology of the
// paper's Section V-B: the hardware side advances APERF/MPERF, the fixed
// counters, and two programmable counters (programmed with last-level-
// cache references and misses) as simulated time passes, and a Sampler
// reads the MSRs through the msr-safe gate every 100 ms of virtual time,
// deriving power (ΔE/Δt), effective frequency (ΔAPERF/ΔMPERF), IPC, and
// LLC miss rate exactly as the paper does.
package perfctr

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/rapl"
)

// Counters is the hardware side: it advances the counter MSRs to reflect
// modeled execution.
type Counters struct {
	file *msr.File
	spec cpu.Spec
	// fractional remainders so tiny advances are not quantized away
	fAperf, fMperf, fInstr, fRef, fPMC0, fPMC1 float64
}

// NewCounters wraps a register file for the given processor.
func NewCounters(file *msr.File, spec cpu.Spec) *Counters {
	// Make sure the counter registers exist.
	for _, r := range []uint32{
		msr.IA32_APERF, msr.IA32_MPERF,
		msr.IA32_FIXED_CTR0, msr.IA32_FIXED_CTR1, msr.IA32_FIXED_CTR2,
		msr.IA32_PMC0, msr.IA32_PMC1,
	} {
		if _, ok := file.Load(r); !ok {
			file.Store(r, 0)
		}
	}
	return &Counters{file: file, spec: spec}
}

// carryAdd accumulates a fractional count into a 64-bit MSR.
func (c *Counters) carryAdd(addr uint32, frac *float64, amount float64) {
	v := amount + *frac
	whole := math.Floor(v)
	*frac = v - whole
	if whole > 0 {
		c.file.Add(addr, uint64(whole))
	}
}

// Advance moves the counters forward by dt seconds of execution at
// frequency fGHz, during which the package retired instr instructions and
// made llcRefs/llcMisses last-level-cache accesses. APERF/MPERF are
// advanced as per-core counts (APERF at the actual clock, MPERF at the
// base clock); the fixed counters aggregate across cores.
func (c *Counters) Advance(dt, fGHz, instr, llcRefs, llcMisses float64) {
	if dt <= 0 {
		return
	}
	cores := float64(c.spec.Cores)
	c.carryAdd(msr.IA32_APERF, &c.fAperf, fGHz*1e9*dt)
	c.carryAdd(msr.IA32_MPERF, &c.fMperf, c.spec.BaseGHz*1e9*dt)
	c.carryAdd(msr.IA32_FIXED_CTR0, &c.fInstr, instr)
	c.carryAdd(msr.IA32_FIXED_CTR2, &c.fRef, fGHz*1e9*dt*cores)
	// Programmable counters count whatever the event selects ask for.
	sel0, _ := c.file.Load(msr.IA32_PERFEVTSEL0)
	sel1, _ := c.file.Load(msr.IA32_PERFEVTSEL1)
	c.advancePMC(msr.IA32_PMC0, &c.fPMC0, sel0, llcRefs, llcMisses)
	c.advancePMC(msr.IA32_PMC1, &c.fPMC1, sel1, llcRefs, llcMisses)
}

func (c *Counters) advancePMC(addr uint32, frac *float64, sel uint64, refs, misses float64) {
	switch sel {
	case msr.EvtLLCReference:
		c.carryAdd(addr, frac, refs)
	case msr.EvtLLCMiss:
		c.carryAdd(addr, frac, misses)
	}
}

// Sample is one reading of the derived metrics over a sampling interval,
// the row format of the paper's measurement logs.
type Sample struct {
	// TimeSec is the virtual timestamp of the sample.
	TimeSec float64
	// IntervalSec is the elapsed time since the previous sample.
	IntervalSec float64
	// EnergyJ is the energy consumed during the interval (wrap-corrected).
	EnergyJ float64
	// PowerW is EnergyJ / IntervalSec.
	PowerW float64
	// EffFreqGHz is base · ΔAPERF/ΔMPERF.
	EffFreqGHz float64
	// IPC is Δinstructions / Δunhalted-cycles.
	IPC float64
	// LLCMissRate is ΔPMC1 / ΔPMC0 when programmed with miss/reference.
	LLCMissRate float64
}

// snapshot is the raw counter state a sampler differences against.
type snapshot struct {
	aperf, mperf, instr, ref, pmc0, pmc1, energy uint64
}

// Sampler reads the counters through the msr-safe gate at 100 ms
// intervals (or any caller-chosen cadence).
type Sampler struct {
	sf       *msr.SafeFile
	spec     cpu.Spec
	prev     snapshot
	prevTime float64
	primed   bool
}

// NewSampler creates a sampler over a gated register file. Call Prime
// before the first Sample.
func NewSampler(sf *msr.SafeFile, spec cpu.Spec) *Sampler {
	return &Sampler{sf: sf, spec: spec}
}

// ProgramLLCEvents points PMC0 at LLC references and PMC1 at LLC misses,
// as the paper's harness does. It fails if the allowlist forbids it.
func (s *Sampler) ProgramLLCEvents() error {
	if err := s.sf.Write(msr.IA32_PERFEVTSEL0, msr.EvtLLCReference); err != nil {
		return err
	}
	return s.sf.Write(msr.IA32_PERFEVTSEL1, msr.EvtLLCMiss)
}

func (s *Sampler) read() (snapshot, error) {
	var snap snapshot
	var err error
	rd := func(addr uint32) uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = s.sf.Read(addr)
		return v
	}
	snap.aperf = rd(msr.IA32_APERF)
	snap.mperf = rd(msr.IA32_MPERF)
	snap.instr = rd(msr.IA32_FIXED_CTR0)
	snap.ref = rd(msr.IA32_FIXED_CTR2)
	snap.pmc0 = rd(msr.IA32_PMC0)
	snap.pmc1 = rd(msr.IA32_PMC1)
	snap.energy = rd(msr.MSR_PKG_ENERGY_STATUS)
	return snap, err
}

// Prime records the initial counter state at time nowSec.
func (s *Sampler) Prime(nowSec float64) error {
	snap, err := s.read()
	if err != nil {
		return err
	}
	s.prev, s.prevTime, s.primed = snap, nowSec, true
	return nil
}

// Sample reads the counters at virtual time nowSec and returns the derived
// metrics for the elapsed interval.
func (s *Sampler) Sample(nowSec float64) (Sample, error) {
	if !s.primed {
		return Sample{}, fmt.Errorf("perfctr: Sample before Prime")
	}
	snap, err := s.read()
	if err != nil {
		return Sample{}, err
	}
	dt := nowSec - s.prevTime
	out := Sample{TimeSec: nowSec, IntervalSec: dt}
	if dt > 0 {
		out.EnergyJ = rapl.EnergyDeltaJoules(s.prev.energy, snap.energy)
		out.PowerW = out.EnergyJ / dt
	}
	if dm := snap.mperf - s.prev.mperf; dm > 0 {
		out.EffFreqGHz = s.spec.BaseGHz * float64(snap.aperf-s.prev.aperf) / float64(dm)
	}
	if dr := snap.ref - s.prev.ref; dr > 0 {
		out.IPC = float64(snap.instr-s.prev.instr) / float64(dr)
	}
	if d0 := snap.pmc0 - s.prev.pmc0; d0 > 0 {
		out.LLCMissRate = float64(snap.pmc1-s.prev.pmc1) / float64(d0)
	}
	s.prev, s.prevTime = snap, nowSec
	return out, nil
}

// Monitor is the counter substrate of a measurement loop on one package:
// the hardware counters that advance as modeled execution progresses and
// the gated sampler that reads them back. Loops differ only in how they
// slice time (Trace's global grid, the power governor's per-phase ticks).
type Monitor struct {
	pkg  *rapl.Package
	ctrs *Counters
	*Sampler
}

// NewMonitor wraps pkg's register file the way the paper's harness does:
// the sampler behind the study allowlist, the two programmable counters on
// LLC references and misses, primed at time zero.
func NewMonitor(pkg *rapl.Package) (*Monitor, error) {
	file, spec := pkg.File(), pkg.Spec()
	m := &Monitor{pkg: pkg, ctrs: NewCounters(file, spec), Sampler: NewSampler(msr.Open(file, msr.StudyAllowlist()), spec)}
	if err := m.ProgramLLCEvents(); err != nil {
		return nil, err
	}
	if err := m.Prime(0); err != nil {
		return nil, err
	}
	return m, nil
}

// Advance runs dt seconds at the governed operating point r (see
// Counters.Advance): the RAPL energy counter and the performance counters
// move together.
func (m *Monitor) Advance(dt float64, r cpu.CapResult, instr, llcRefs, llcMisses float64) {
	m.pkg.AccumulateEnergy(r.PowerWatts * dt)
	m.ctrs.Advance(dt, r.FreqGHz, instr, llcRefs, llcMisses)
}

// DefaultInterval is the paper's 100 ms energy-sampling cadence.
const DefaultInterval = 0.1

// Trace simulates running the analyzed executions back to back on pkg
// under its programmed power limit, sampling every interval seconds of
// virtual time. It returns the samples and the per-segment governed
// results. This reproduces the paper's measurement loop: the RAPL energy
// counter and performance counters advance continuously (including across
// the simulation/visualization alternation of an in situ pipeline) while
// the sampler differences them.
func Trace(pkg *rapl.Package, segs []cpu.Execution, interval float64) ([]Sample, []cpu.CapResult, error) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	mon, err := NewMonitor(pkg)
	if err != nil {
		return nil, nil, err
	}

	results := make([]cpu.CapResult, len(segs))
	var samples []Sample
	now := 0.0
	nextSample := interval
	for i, e := range segs {
		r := pkg.Govern(e)
		results[i] = r
		remaining := r.TimeSec
		if remaining <= 0 {
			continue
		}
		// Per-second rates during this segment.
		instrRate := float64(e.Instructions) / r.TimeSec
		refRate := float64(e.LLCRefs) / r.TimeSec
		missRate := float64(e.LLCMisses) / r.TimeSec
		for remaining > 1e-12 {
			step := math.Min(remaining, nextSample-now)
			mon.Advance(step, r, instrRate*step, refRate*step, missRate*step)
			now += step
			remaining -= step
			if now >= nextSample-1e-12 {
				s, err := mon.Sample(now)
				if err != nil {
					return nil, nil, err
				}
				samples = append(samples, s)
				nextSample += interval
			}
		}
	}
	// Final partial-interval sample, if any time elapsed since the last.
	if now > s0(samples) {
		s, err := mon.Sample(now)
		if err != nil {
			return nil, nil, err
		}
		if s.IntervalSec > 1e-12 {
			samples = append(samples, s)
		}
	}
	return samples, results, nil
}

func s0(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].TimeSec
}
