package study

import (
	"fmt"
	"strings"
)

// Table1 renders the paper's Table I: for one algorithm (contour in the
// paper), one row per power cap with the enforced cap P, Pratio, the
// execution time T, Tratio, the effective frequency F, and Fratio. Rows
// where the 10% slowdown first appears are marked with '*' (the paper
// prints them in red).
func Table1(run *Run, caps []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — %s, %d^3 data set\n", run.Name, run.Size)
	fmt.Fprintf(&b, "%-6s %-7s %-10s %-7s %-8s %-7s\n", "P", "Pratio", "T", "Tratio", "F", "Fratio")
	for i, capW := range caps {
		r, rt := run.ByCap[i], run.Ratios[i]
		markT, markF := " ", " "
		if capW == run.SlowT {
			markT = "*"
		}
		if capW == run.SlowF {
			markF = "*"
		}
		fmt.Fprintf(&b, "%-6s %-7s %-10s %-7s %-8s %-7s\n",
			fmt.Sprintf("%.0fW", capW),
			fmt.Sprintf("%.1fX", rt.Pratio),
			fmt.Sprintf("%.3fs", r.TimeSec),
			fmt.Sprintf("%.2fX%s", rt.Tratio, markT),
			fmt.Sprintf("%.2fGHz", r.FreqGHz),
			fmt.Sprintf("%.2fX%s", rt.Fratio, markF),
		)
	}
	return b.String()
}

// SlowdownTable renders the paper's Table II/III format: for every
// algorithm, a Tratio row and an Fratio row across all caps, with the
// first >= 10% degradation marked '*'.
func SlowdownTable(title string, runs []*Run, caps []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	// Header: P and Pratio rows.
	fmt.Fprintf(&b, "%-22s %-8s", "P", "")
	for _, capW := range caps {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.0fW", capW))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s %-8s", "Pratio", "")
	for _, capW := range caps {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.1fX", caps[0]/capW))
	}
	b.WriteByte('\n')
	for _, run := range runs {
		fmt.Fprintf(&b, "%-22s %-8s", run.Name, "Tratio")
		for i, capW := range caps {
			mark := ""
			if capW == run.SlowT {
				mark = "*"
			}
			fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.2fX%s", run.Ratios[i].Tratio, mark))
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%-22s %-8s", "", "Fratio")
		for i, capW := range caps {
			mark := ""
			if capW == run.SlowF {
				mark = "*"
			}
			fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.2fX%s", run.Ratios[i].Fratio, mark))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table2 renders Table II (all algorithms at the phase size).
func Table2(runs []*Run, caps []float64) string { return numberedTable("II", runs, caps) }

// Table3 renders Table III (all algorithms at the largest size).
func Table3(runs []*Run, caps []float64) string { return numberedTable("III", runs, caps) }

// numberedTable is SlowdownTable titled with the table's number and the
// runs' data-set size.
func numberedTable(number string, runs []*Run, caps []float64) string {
	size := 0
	if len(runs) > 0 {
		size = runs[0].Size
	}
	return SlowdownTable(fmt.Sprintf("Table %s — slowdown factors, %d^3 data set", number, size), runs, caps)
}

// EnergyTable quantifies the Section V-A tradeoff ("users can make a
// tradeoff between running Tratio times slower and using Pratio less
// power"): for every algorithm and cap, the energy-to-solution relative
// to the TDP run. For power-opportunity algorithms the ratio falls well
// below 1 — capping is an energy win at almost no time cost — while for
// power-sensitive algorithms the longer runtime eats the savings.
func EnergyTable(runs []*Run, caps []float64) string {
	var b strings.Builder
	b.WriteString("Energy to solution relative to the TDP run (E_cap / E_TDP)\n")
	fmt.Fprintf(&b, "%-22s", "Algorithm")
	for _, capW := range caps {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.0fW", capW))
	}
	b.WriteByte('\n')
	for _, run := range runs {
		fmt.Fprintf(&b, "%-22s", run.Name)
		for i := range caps {
			fmt.Fprintf(&b, "%8.2f", run.Ratios[i].Eratio)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DemandTable summarizes each algorithm's unconstrained power demand, IPC,
// LLC miss rate, and classification — the quantitative basis of the
// paper's Section VI-B discussion.
func DemandTable(runs []*Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %8s %10s %14s  %s\n",
		"Algorithm", "Demand(W)", "IPC", "LLC miss", "1st 10% slow", "Class")
	for _, run := range runs {
		d := run.Demand
		fmt.Fprintf(&b, "%-22s %10.1f %8.2f %10.3f %14s  %s\n",
			run.Name, d.PowerWatts, d.IPC, d.LLCMissRate, CapLabel(run.SlowT, "W"), run.Class)
	}
	return b.String()
}
