package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// StageStat aggregates every span sharing one name: how many there
// were, their total (inclusive) time, and their self time — total minus
// the time covered by child spans nested inside them on the same track.
// Self time is what the summary table ranks by: it attributes each
// nanosecond of the trace to exactly one stage.
type StageStat struct {
	Name    string
	Count   int64
	TotalNs int64
	SelfNs  int64
	MaxNs   int64 // longest single span
}

// SelfSec returns the self time in seconds.
func (s StageStat) SelfSec() float64 { return float64(s.SelfNs) / 1e9 }

// Summarize aggregates spans into per-name statistics, self time
// computed by a containment sweep per track: spans are walked in the
// canonical order (start ascending, parents before children) with a
// stack of open spans; each span's duration is subtracted from its
// nearest enclosing span's self time. The result is sorted by self time
// descending.
func Summarize(spans []Span) []StageStat {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)

	self := make([]int64, len(sorted))
	type open struct{ idx int }
	var stack []open
	prevTrack := int32(-1)
	for i, s := range sorted {
		if s.Track != prevTrack {
			stack = stack[:0]
			prevTrack = s.Track
		}
		// Pop spans that ended before this one starts.
		for len(stack) > 0 && sorted[stack[len(stack)-1].idx].End() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		self[i] = s.Dur
		if len(stack) > 0 {
			self[stack[len(stack)-1].idx] -= s.Dur
		}
		stack = append(stack, open{idx: i})
	}

	byName := make(map[string]*StageStat)
	var order []string
	for i, s := range sorted {
		st := byName[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.TotalNs += s.Dur
		st.SelfNs += self[i]
		if s.Dur > st.MaxNs {
			st.MaxNs = s.Dur
		}
	}
	out := make([]StageStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Window returns the spans that start inside [lo, hi) — the per-cell
// attribution slice the harness records for each sweep cell.
func Window(spans []Span, lo, hi int64) []Span {
	var out []Span
	for _, s := range spans {
		if s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}

// WriteSummary renders the plain-text profile: the per-stage self-time
// table and the topN longest individual spans. wallNs, when positive,
// adds a percent-of-wall column.
func WriteSummary(w io.Writer, spans []Span, topN int, wallNs int64) error {
	stats := Summarize(spans)
	var b strings.Builder
	b.WriteString("stage summary (self time attributes each ns to exactly one stage)\n")
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %12s", "stage", "count", "self", "total", "max")
	if wallNs > 0 {
		fmt.Fprintf(&b, " %7s", "% wall")
	}
	b.WriteByte('\n')
	for _, st := range stats {
		fmt.Fprintf(&b, "%-28s %8d %12s %12s %12s",
			st.Name, st.Count, fmtDur(st.SelfNs), fmtDur(st.TotalNs), fmtDur(st.MaxNs))
		if wallNs > 0 {
			fmt.Fprintf(&b, " %6.1f%%", 100*float64(st.SelfNs)/float64(wallNs))
		}
		b.WriteByte('\n')
	}
	if topN > 0 {
		longest := make([]Span, len(spans))
		copy(longest, spans)
		sort.SliceStable(longest, func(i, j int) bool {
			if longest[i].Dur != longest[j].Dur {
				return longest[i].Dur > longest[j].Dur
			}
			if longest[i].Track != longest[j].Track {
				return longest[i].Track < longest[j].Track
			}
			return longest[i].Start < longest[j].Start
		})
		if topN > len(longest) {
			topN = len(longest)
		}
		fmt.Fprintf(&b, "\ntop %d spans\n", topN)
		fmt.Fprintf(&b, "%-28s %6s %12s %14s\n", "span", "track", "dur", "start")
		for _, s := range longest[:topN] {
			fmt.Fprintf(&b, "%-28s %6d %12s %14s\n", s.Name, s.Track, fmtDur(s.Dur), fmtDur(s.Start))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtDur renders nanoseconds in a fixed human unit per magnitude, with
// deterministic formatting (no time.Duration stringer variance).
func fmtDur(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
