package obs

import (
	"fmt"
	"io"
	"strings"
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

// WriteDecisionTable renders a governed run's decision log: one line
// per decision, oldest first.
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
