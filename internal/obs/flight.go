package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Decision is one governor cap decision: when it happened (virtual
// clock), under which job-average target, what phase and classification
// drove it, the control-law components that produced the new cap, and
// the watt transition. The zero components (BankJ, TrimW) are meaningful
// — a boundary decision with an empty bank is different from a retune
// that spent it. Each governed run's clock starts at 0, so decisions
// pooled from several runs are told apart by TargetWatts.
type Decision struct {
	TimeSec      float64 `json:"time_sec"`     // virtual-clock timestamp
	TargetWatts  float64 `json:"target_watts"` // the deciding run's job-average target
	Cycle        int     `json:"cycle"`
	Phase        string  `json:"phase"`             // phase label ("simulate", "contour", ...)
	Class        string  `json:"class"`             // classification vote ("opportunity"/"sensitive")
	Score        float64 `json:"score"`             // classification score behind the vote
	FeedforwardW float64 `json:"feedforward_watts"` // demand-model feedforward component
	BankJ        float64 `json:"bank_joules"`       // energy bank balance at decision time
	TrimW        float64 `json:"trim_watts"`        // integral trim component
	OldWatts     float64 `json:"old_watts"`
	NewWatts     float64 `json:"new_watts"`
	Reason       string  `json:"reason"` // "boundary", "retune", "init", ...
}

// DefaultFlightRecorderSize bounds the decision ring. A governed sweep
// makes a few decisions per phase; 512 holds hundreds of cycles while
// keeping the recorder's footprint fixed.
const DefaultFlightRecorderSize = 512

// FlightRecorder is a bounded ring of governor cap decisions. When
// full, the oldest decisions are overwritten and counted as dropped —
// the recorder never grows and never blocks the control loop. A nil
// *FlightRecorder is valid and discards everything, mirroring the
// nil-Registry convention.
//
// Decisions are rare (phase boundaries and hysteresis-gated retunes,
// not per-tick), so a mutex is the right tool here; the lock-free
// machinery in this package is reserved for per-task hot paths.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []Decision
	next    int
	wrapped bool
	dropped int64
}

// NewFlightRecorder returns a recorder holding the last size decisions
// (DefaultFlightRecorderSize if size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{ring: make([]Decision, size)}
}

// Record appends one decision, overwriting the oldest when full.
func (f *FlightRecorder) Record(d Decision) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.wrapped {
		f.dropped++
	}
	f.ring[f.next] = d
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrapped = true
	}
	f.mu.Unlock()
}

// Decisions returns the recorded decisions oldest-first.
func (f *FlightRecorder) Decisions() []Decision {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.wrapped {
		return append([]Decision(nil), f.ring[:f.next]...)
	}
	out := make([]Decision, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// Dropped returns how many decisions were overwritten.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// WriteDecisionTable renders the flight-recorder dump: one line per
// decision, oldest first.
func WriteDecisionTable(w io.Writer, decisions []Decision, dropped int64) {
	fmt.Fprintf(w, "%8s %5s %-12s %-11s %7s %8s %7s  %-17s %s\n",
		"t(s)", "cycle", "phase", "class", "ff(W)", "bank(J)", "trim(W)", "cap(W)", "reason")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, d := range decisions {
		fmt.Fprintf(w, "%8.3f %5d %-12s %-11s %7.1f %8.2f %7.2f  %7.1f -> %6.1f %s\n",
			d.TimeSec, d.Cycle, d.Phase, d.Class, d.FeedforwardW, d.BankJ, d.TrimW,
			d.OldWatts, d.NewWatts, d.Reason)
	}
	fmt.Fprintf(w, "%d decisions", len(decisions))
	if dropped > 0 {
		fmt.Fprintf(w, " (%d older decisions dropped from the ring)", dropped)
	}
	fmt.Fprintln(w)
}
