package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteChromeTrace serializes the tracer's spans as Chrome trace-event
// JSON (the "JSON object format" with a traceEvents array), loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Every track becomes
// one named thread under a single "vizpower" process: metadata events
// name the process and threads, and each span is one complete ("X")
// event with microsecond timestamps carrying nanosecond fractions.
//
// The output is deterministic for a given span set: tracks ascending,
// spans in the canonical Spans() order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, t.Spans(), t.trackNames())
}

func (t *Tracer) trackNames() map[int]string {
	if t == nil {
		return nil
	}
	names := make(map[int]string, len(t.tracks))
	for i, tr := range t.tracks {
		names[i] = tr.name
	}
	return names
}

// writeChromeTrace writes an explicit span set. names maps track index
// to display name; missing entries fall back to "track N".
func writeChromeTrace(w io.Writer, spans []Span, names map[int]string) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	const pid = 1
	emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"vizpower"}}`)
	// Thread metadata: one per track that appears (plus any named track),
	// with sort_index pinning the pipeline track above the workers.
	seen := map[int]bool{}
	for _, s := range spans {
		seen[int(s.Track)] = true
	}
	for tr := range names {
		seen[tr] = true
	}
	tracks := make([]int, 0, len(seen))
	for tr := range seen {
		tracks = append(tracks, tr)
	}
	sortInts(tracks)
	for _, tr := range tracks {
		name := names[tr]
		if name == "" {
			name = fmt.Sprintf("track %d", tr)
		}
		nb, err := json.Marshal(name)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, pid, tr, nb))
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, pid, tr, tr))
	}
	for _, s := range spans {
		nb, err := json.Marshal(s.Name)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"ts":%s,"dur":%s}`,
			pid, s.Track, nb, usec(s.Start), usec(s.Dur)))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders nanoseconds as decimal microseconds with up to three
// fractional digits (trace-event timestamps are microseconds; the
// fraction preserves full nanosecond precision).
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	whole, frac := ns/1000, ns%1000
	if frac == 0 {
		return neg + strconv.FormatInt(whole, 10)
	}
	s := fmt.Sprintf("%s%d.%03d", neg, whole, frac)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// ValidateChromeTrace parses data as trace-event JSON and returns the
// number of events, or an error describing why the file is not a valid
// trace. The Makefile profile target and the profile subcommand use it
// to prove the written trace.json round-trips.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("telemetry: invalid trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("telemetry: trace has no events")
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 || ev.TS < 0 {
				return 0, fmt.Errorf("telemetry: event %d has negative ts/dur", i)
			}
		case "M":
		default:
			return 0, fmt.Errorf("telemetry: event %d has unexpected phase %q", i, ev.Ph)
		}
	}
	return len(doc.TraceEvents), nil
}
