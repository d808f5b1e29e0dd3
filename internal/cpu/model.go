package cpu

import (
	"fmt"
	"math"

	"repro/internal/ops"
)

// Cache-model coefficients. Each access-pattern class has a fraction of its
// cache-line touches that reach the last-level cache (the L1/L2 hierarchy
// and the L2 prefetchers filter the rest), a base miss probability while
// the working set is LLC-resident (cold misses and prefetch gaps), and an
// extra capacity-miss probability that turns on as the working set
// overflows the LLC. The constants are calibrated so the modeled LLC miss
// rates and IPCs land where the paper's Fig. 2b/2c place the eight
// algorithms; see EXPERIMENTS.md for the calibration record.
var cacheModel = [4]struct {
	refFrac float64 // fraction of line touches that reach LLC
	refCap  float64 // extra LLC-reference fraction when the working set
	// overflows: reuse that the upper cache levels absorbed stops being
	// absorbed (this is what un-hides a ray marcher's resampling traffic
	// at 256³ — the paper's Fig. 5 mechanism)
	missBase float64 // miss probability with a resident working set
	missCap  float64 // extra miss probability when the working set overflows
	hide     float64 // fraction of miss latency hidden by prefetch/overlap
	lineDiv  float64 // effective bytes per distinct line touched: gathers
	// pull whole cache lines for a few useful bytes, so their divisor is
	// far below the 64-byte line size.
}{
	ops.Stream:   {refFrac: 0.55, refCap: 0, missBase: 0.30, missCap: 0.06, hide: 0.80, lineDiv: 64},
	ops.Strided:  {refFrac: 0.75, refCap: 0, missBase: 0.42, missCap: 0.05, hide: 0.50, lineDiv: 24},
	ops.Random:   {refFrac: 1.00, refCap: 0, missBase: 0.65, missCap: 0.30, hide: 0.05, lineDiv: 64},
	ops.Resident: {refFrac: 0.02, refCap: 1.00, missBase: 0.05, missCap: 1.20, hide: 0.30, lineDiv: 64},
}

// shortStreamPenalty raises the stream miss probability when total stream
// traffic is small: prefetchers never warm up on short streams. This is
// one of the two mechanisms behind the paper's Fig. 4 (IPC grows with data
// size for the cell-centered algorithms).
func shortStreamPenalty(streamBytes float64) float64 {
	const knee = 192 << 20 // 192 MiB of total stream traffic
	return 0.25 / (1 + streamBytes/knee)
}

// mixIntensity weights: relative dynamic-power cost of each instruction
// class (floating-point work toggles wide datapaths; loads/stores mostly
// wait). Used to compute the activity factor of the power model.
const (
	intensityFlop   = 1.50
	intensityInt    = 0.90
	intensityBranch = 0.70
	intensityMem    = 1.00
	// serialIPC is the assumed IPC of kernel-launch overhead code.
	serialIPC = 0.5
	// memOverlap is the fraction of the smaller of (core time, memory
	// time) that fails to overlap with the larger.
	memOverlap = 0.15
	// Dynamic-power activity of a busy core: a base issue/fetch cost plus
	// a component proportional to how much real work retires per cycle
	// (issue rate × instruction-mix intensity). A core grinding through
	// dependent gathers at low IPC burns much less than one retiring
	// multiple FMAs per cycle.
	baseActivity = 0.45
	ipcActivity  = 0.30
)

// Execution is the frequency-independent summary of one instrumented run
// on a Spec: everything needed to evaluate time, power, and counters at
// any frequency, and hence under any RAPL cap.
type Execution struct {
	Spec    Spec
	Threads int
	Profile ops.Profile

	// Instructions is the modeled INST_RETIRED.ANY count, including the
	// serial launch-overhead instructions.
	Instructions uint64
	// CoreCyclesPerCore is the per-core issue-bound cycle count of the
	// parallel phase.
	CoreCyclesPerCore float64
	// SerialCycles is the single-threaded launch-overhead cycle count.
	SerialCycles float64
	// MemStallSec is the frequency-independent memory stall time
	// (max of latency-bound and bandwidth-bound estimates).
	MemStallSec float64
	// LLCRefs and LLCMisses model LONG_LAT_CACHE.REFERENCE / .MISS.
	LLCRefs, LLCMisses uint64
	// intensity is the instruction-mix power weight (≈1 for balanced).
	intensity float64
	// ipcCore is the issue rate while not stalled (instructions per busy
	// cycle), feeding the activity term of the power model.
	ipcCore float64
}

// Analyze converts an instrumented profile into an Execution on spec,
// assuming the kernel ran across threads cores (0 selects all cores, the
// paper's configuration: one rank per node, TBB across the socket).
func Analyze(spec Spec, p ops.Profile, threads int) Execution {
	if threads <= 0 {
		threads = spec.Cores
	}
	e := Execution{Spec: spec, Threads: threads, Profile: p}

	loadWords := float64(p.TotalLoadBytes()) / 8
	storeWords := float64(p.TotalStoreBytes()) / 8
	flops := float64(p.Flops)
	iops := float64(p.IntOps)
	brs := float64(p.Branches)

	// Core (issue-bound) cycles, with per-pattern load costs.
	loadCycles := 0.0
	for pat, bytes := range p.LoadBytes {
		loadCycles += float64(bytes) / 8 * spec.LoadCyclesByClass[pat]
	}
	coreCycles := flops*spec.FlopCycles + iops*spec.IntOpCycles +
		brs*spec.BranchCycles + loadCycles + storeWords*spec.StoreCycles
	e.CoreCyclesPerCore = coreCycles / (float64(threads) * spec.ParallelEfficiency)
	e.SerialCycles = float64(p.Launches) * spec.LaunchOverheadCycles

	// Instruction-mix intensity and issue rate for the power model.
	instrCore := flops + iops + brs + loadWords + storeWords
	if instrCore > 0 {
		e.intensity = (intensityFlop*flops + intensityInt*iops +
			intensityBranch*brs + intensityMem*(loadWords+storeWords)) / instrCore
	} else {
		e.intensity = 1
	}
	if coreCycles > 0 {
		e.ipcCore = instrCore / coreCycles
	} else {
		e.ipcCore = 1
	}

	// Cache model: line touches per class -> LLC refs and misses.
	ws := float64(p.WorkingSetBytes)
	resident := 1.0
	if ws > float64(spec.LLCBytes) {
		resident = float64(spec.LLCBytes) / ws
	}
	line := float64(spec.CacheLineBytes)
	var refs, misses, lat float64
	for _, pat := range []ops.Pattern{ops.Stream, ops.Strided, ops.Random, ops.Resident} {
		bytes := float64(p.LoadBytes[pat] + p.StoreBytes[pat])
		if bytes == 0 {
			continue
		}
		cm := cacheModel[pat]
		touches := bytes / cm.lineDiv
		if pat == ops.Random && p.RandomAccesses > 0 {
			// Each random access touches at least one line.
			if t := float64(p.RandomAccesses); t > touches {
				touches = t
			}
		}
		r := touches * (cm.refFrac + cm.refCap*(1-resident))
		missProb := cm.missBase + cm.missCap*(1-resident)
		if pat == ops.Stream {
			missProb += shortStreamPenalty(bytes)
		}
		if missProb > 0.98 {
			missProb = 0.98
		}
		m := r * missProb
		refs += r
		misses += m
		lat += m * spec.DRAMLatencyNs * (1 - cm.hide)
	}
	e.LLCRefs = uint64(refs)
	e.LLCMisses = uint64(misses)

	// Memory stall time: latency-bound (divided across cores and MLP)
	// vs. bandwidth-bound (shared DRAM channels).
	latSec := lat * 1e-9 / (float64(threads) * spec.MemParallelism)
	bwSec := misses * line / (spec.DRAMBandwidthGBs * 1e9)
	e.MemStallSec = math.Max(latSec, bwSec)

	e.Instructions = p.Instructions() + uint64(e.SerialCycles*serialIPC)
	return e
}

// TimeAt returns the modeled wall time in seconds at frequency f (GHz):
// the parallel phase overlaps core work with memory stalls (imperfectly),
// and the serial launch overhead adds on top.
func (e Execution) TimeAt(fGHz float64) float64 {
	hz := fGHz * 1e9
	tc := e.CoreCyclesPerCore / hz
	ts := e.SerialCycles / hz
	tm := e.MemStallSec
	return math.Max(tc, tm) + memOverlap*math.Min(tc, tm) + ts
}

// busyFrac returns the fraction of package time the cores spend issuing
// (not stalled on memory) at frequency f.
func (e Execution) busyFrac(fGHz float64) float64 {
	t := e.TimeAt(fGHz)
	if t <= 0 {
		return 1
	}
	hz := fGHz * 1e9
	// During the serial launch phase only one of the package's cores is
	// active, so it contributes 1/Cores of full-package activity.
	busy := (e.CoreCyclesPerCore + e.SerialCycles/float64(e.Spec.Cores)) / hz / t
	if busy > 1 {
		busy = 1
	}
	return busy
}

// PowerAt returns the modeled package power in watts while running at
// frequency f. It is strictly increasing in f (required by the governor).
func (e Execution) PowerAt(fGHz float64) float64 {
	s := e.Spec
	busy := e.busyFrac(fGHz)
	busyAct := baseActivity + ipcActivity*e.ipcCore*e.intensity
	act := busy*busyAct + (1-busy)*s.StallActivity
	dyn := s.CdynWatts * math.Pow(fGHz/s.BaseGHz, s.FreqExponent) * act
	return s.UncoreWatts + float64(s.Cores)*(s.CoreLeakWatts+dyn)
}

// IPCAt returns the modeled per-core instructions per cycle at frequency
// f, counted against unhalted reference cycles across all cores — the
// quantity INST_RETIRED.ANY / CPU_CLK_UNHALTED.REF_TSC measures.
func (e Execution) IPCAt(fGHz float64) float64 {
	t := e.TimeAt(fGHz)
	if t <= 0 {
		return 0
	}
	cycles := t * fGHz * 1e9 * float64(e.Threads)
	return float64(e.Instructions) / cycles
}

// LLCMissRate returns the modeled LONG_LAT_CACHE.MISS / .REFERENCE ratio.
func (e Execution) LLCMissRate() float64 {
	if e.LLCRefs == 0 {
		return 0
	}
	return float64(e.LLCMisses) / float64(e.LLCRefs)
}

// CapResult is the modeled outcome of running an Execution under a RAPL
// power cap: the governor's frequency choice and every derived metric the
// paper reports.
type CapResult struct {
	CapWatts    float64
	FreqGHz     float64
	TimeSec     float64
	PowerWatts  float64
	EnergyJ     float64
	IPC         float64
	LLCMissRate float64
	// Throttled reports whether the cap forced a frequency below the
	// all-core turbo ceiling.
	Throttled bool
}

// UnderCap applies the RAPL governor: the highest ladder frequency whose
// modeled power fits the cap (or the ladder floor if none fits), then
// evaluates the run at that frequency. Caps below the spec's enforceable
// floor are raised to it, as the hardware does.
func (e Execution) UnderCap(capWatts float64) CapResult {
	s := e.Spec
	if capWatts < s.MinCapWatts {
		capWatts = s.MinCapWatts
	}
	f := s.MinGHz
	for g := s.MinGHz; g <= s.AllCoreTurboGHz+1e-9; g += s.StepGHz {
		if e.PowerAt(g) <= capWatts {
			f = g
		}
	}
	return e.at(capWatts, f)
}

// Demand evaluates the run unconstrained (at the all-core turbo ceiling),
// reporting the power the algorithm asks for — the quantity that decides
// where its throttling begins.
func (e Execution) Demand() CapResult {
	return e.at(math.Inf(1), e.Spec.AllCoreTurboGHz)
}

func (e Execution) at(capWatts, fGHz float64) CapResult {
	t := e.TimeAt(fGHz)
	p := e.PowerAt(fGHz)
	return CapResult{
		CapWatts:    capWatts,
		FreqGHz:     fGHz,
		TimeSec:     t,
		PowerWatts:  p,
		EnergyJ:     p * t,
		IPC:         e.IPCAt(fGHz),
		LLCMissRate: e.LLCMissRate(),
		Throttled:   fGHz < e.Spec.AllCoreTurboGHz-1e-9,
	}
}

// String summarizes the execution for debugging.
func (e Execution) String() string {
	return fmt.Sprintf("cpu.Execution{threads=%d coreCyc/core=%.3g serialCyc=%.3g memStall=%.3gs refs=%d misses=%d instr=%d}",
		e.Threads, e.CoreCyclesPerCore, e.SerialCycles, e.MemStallSec, e.LLCRefs, e.LLCMisses, e.Instructions)
}
