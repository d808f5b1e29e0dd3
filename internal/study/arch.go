package study

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
)

// Architectures lists the processor models the cross-architecture
// extension compares (the paper's §VIII future work).
func Architectures() []cpu.Spec {
	return []cpu.Spec{cpu.BroadwellEP(), cpu.EPYCLike(), cpu.KNLLike()}
}

// ArchRow is one algorithm's capping response on one architecture: its
// profile priced at archFractions of the spec's TDP (ByCap in that order).
type ArchRow struct {
	Spec cpu.Spec
	Priced
}

// archFractions are the relative cap points used for cross-architecture
// comparison: each architecture's enforceable range differs in watts, so
// caps are expressed as fractions of its TDP.
var archFractions = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.33}

// PriceArchitectures prices one measured cell's profile on each spec, at
// caps relative to its TDP: the operation counts are
// architecture-independent, the model is not.
func PriceArchitectures(c *Cell, specs []cpu.Spec) []ArchRow {
	rows := make([]ArchRow, len(specs))
	for i, spec := range specs {
		caps := make([]float64, len(archFractions))
		for j, frac := range archFractions {
			caps[j] = frac * spec.TDPWatts
		}
		rows[i] = ArchRow{Spec: spec, Priced: price(spec, caps, c.Profile)}
	}
	return rows
}

// ArchTable renders the cross-architecture comparison. A fraction below
// the spec's enforceable floor is raised to it (cpu.Execution.UnderCap),
// so a column whose enforced cap repeats the previous column's prints
// "—" rather than that column's result again.
func ArchTable(algName string, rows []ArchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-architecture capping response — %s\n", algName)
	fmt.Fprintf(&b, "%-40s %10s", "Architecture (cap as fraction of TDP)", "demand")
	for _, frac := range archFractions {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("%.0f%%", frac*100))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-40s %9.0f%%", row.Spec.Name, row.Demand.PowerWatts/row.Spec.TDPWatts*100)
		for i, r := range row.ByCap {
			cell := "—"
			if i == 0 || r.CapWatts != row.ByCap[i-1].CapWatts {
				mark := ""
				if r.CapWatts == row.SlowT {
					mark = "*"
				}
				cell = fmt.Sprintf("%.2fX%s", row.Ratios[i].Tratio, mark)
			}
			fmt.Fprintf(&b, "%8s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
