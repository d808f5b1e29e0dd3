package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// StageJoules is one row of an energy attribution: a pipeline stage,
// its span self time, and the joules charged to it.
type StageJoules struct {
	Stage   string
	Count   int64
	SelfSec float64
	Joules  float64
	Share   float64 // Joules / total, in [0,1]
}

// Attribute joins a self-time summary with the joules a power meter
// measured over the same interval to answer "where did the joules go?".
// The meter measures the whole package — it cannot see stages — so the
// join distributes the measured total across stages in proportion to
// span self time. Self time partitions the traced wall clock (each
// nanosecond belongs to exactly one stage, per Summarize), so
// proportional distribution is the unique assignment consistent with a
// constant-power-within-stage model, and the rows sum to the measured
// total by construction.
//
// Rows come back sorted by joules descending. No joules gives zero-joule
// rows (self time still reported); no stages gives a single
// "(untraced)" row carrying the whole total.
func Attribute(stats []StageStat, joules float64) []StageJoules {
	if len(stats) == 0 {
		if joules == 0 {
			return nil
		}
		return []StageJoules{{Stage: "(untraced)", Joules: joules, Share: 1}}
	}
	rows := SplitJoules(stats, joules)
	sortStageJoules(rows)
	return rows
}

// SplitJoules is the proportional split behind every attribution: one
// row per stage, in stats order, charged joules × its share of the
// stages' total self time. The rows sum to joules whenever any stage
// has self time; with none, every row is charged zero.
func SplitJoules(stats []StageStat, joules float64) []StageJoules {
	var totalSelf float64
	for _, st := range stats {
		totalSelf += st.SelfSec()
	}
	rows := make([]StageJoules, 0, len(stats))
	for _, st := range stats {
		r := StageJoules{Stage: st.Name, Count: st.Count, SelfSec: st.SelfSec()}
		if totalSelf > 0 {
			r.Joules = joules * (st.SelfSec() / totalSelf)
			if joules > 0 {
				r.Share = r.Joules / joules
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// MergeAttribution folds additional rows (e.g. one governed phase's
// attribution) into acc by stage name, keeping the result sorted by
// joules descending. Used by the governor to build a whole-run table
// from per-phase joins, each of which is exact for its phase.
func MergeAttribution(acc, more []StageJoules) []StageJoules {
	byStage := make(map[string]int, len(acc))
	for i, r := range acc {
		byStage[r.Stage] = i
	}
	for _, r := range more {
		if i, ok := byStage[r.Stage]; ok {
			acc[i].Count += r.Count
			acc[i].SelfSec += r.SelfSec
			acc[i].Joules += r.Joules
		} else {
			byStage[r.Stage] = len(acc)
			acc = append(acc, r)
		}
	}
	totalJ := TotalJoules(acc)
	for i := range acc {
		if totalJ > 0 {
			acc[i].Share = acc[i].Joules / totalJ
		} else {
			acc[i].Share = 0
		}
	}
	sortStageJoules(acc)
	return acc
}

func sortStageJoules(rows []StageJoules) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Joules != rows[j].Joules {
			return rows[i].Joules > rows[j].Joules
		}
		return rows[i].Stage < rows[j].Stage
	})
}

// TotalJoules sums the attributed joules (the measured total, by the
// Attribute invariant).
func TotalJoules(rows []StageJoules) float64 {
	var t float64
	for _, r := range rows {
		t += r.Joules
	}
	return t
}

// WriteJoulesTable renders the "Where the joules went" table: one row
// per stage, joules descending, with a totals line.
func WriteJoulesTable(w io.Writer, rows []StageJoules) {
	fmt.Fprintf(w, "%-26s %10s %12s %12s %7s\n", "stage", "count", "self", "joules", "share")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	var totJ, totSelf float64
	var totCount int64
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10d %11.3fs %11.2fJ %6.1f%%\n",
			r.Stage, r.Count, r.SelfSec, r.Joules, r.Share*100)
		totJ += r.Joules
		totSelf += r.SelfSec
		totCount += r.Count
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintf(w, "%-26s %10d %11.3fs %11.2fJ %6.1f%%\n", "total", totCount, totSelf, totJ, 100.0)
}
