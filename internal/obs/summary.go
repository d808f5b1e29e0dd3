package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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
	sorted := slices.Clone(spans)
	sortSpans(sorted)

	self := make([]int64, len(sorted))
	var stack []int // indices of the open spans
	prevTrack := NoTrack
	for i, s := range sorted {
		if s.Track != prevTrack {
			stack = stack[:0]
			prevTrack = s.Track
		}
		// Pop spans that ended before this one starts.
		for len(stack) > 0 && sorted[stack[len(stack)-1]].End() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		self[i] = s.Dur
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.Dur
		}
		stack = append(stack, i)
	}

	byName := make(map[string]*StageStat)
	for i, s := range sorted {
		st := byName[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.Dur
		st.SelfNs += self[i]
		st.MaxNs = max(st.MaxNs, s.Dur)
	}
	out := make([]StageStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b StageStat) int {
		return cmp.Or(cmp.Compare(b.SelfNs, a.SelfNs), strings.Compare(a.Name, b.Name))
	})
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
		longest := slices.Clone(spans)
		slices.SortStableFunc(longest, func(a, b Span) int {
			return cmp.Or(cmp.Compare(b.Dur, a.Dur), cmp.Compare(a.Track, b.Track), cmp.Compare(a.Start, b.Start))
		})
		if topN > len(longest) {
			topN = len(longest)
		}
		fmt.Fprintf(&b, "\ntop %d spans\n", topN)
		fmt.Fprintf(&b, "%-28s %-16s %12s %14s\n", "span", "track", "dur", "start")
		for _, s := range longest[:topN] {
			fmt.Fprintf(&b, "%-28s %-16s %12s %14s\n", s.Name, s.Track, fmtDur(s.Dur), fmtDur(s.Start))
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
