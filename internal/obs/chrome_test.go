package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// chromeGolden is the exact serialization of the fixed synthetic trace
// in TestChromeTraceGolden. The format is load-bearing: Perfetto and
// chrome://tracing parse exactly this shape (object format, metadata
// thread names, complete "X" events with microsecond timestamps).
const chromeGolden = `{"traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"vizpower"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"pipeline"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_sort_index","args":{"sort_index":0}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_sort_index","args":{"sort_index":1}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"worker 1"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_sort_index","args":{"sort_index":2}},
{"ph":"X","pid":1,"tid":0,"name":"simulate","ts":0,"dur":2.5},
{"ph":"X","pid":1,"tid":0,"name":"Contour","ts":2.5,"dur":1500.1},
{"ph":"X","pid":1,"tid":1,"name":"par.chunks","ts":3,"dur":1},
{"ph":"X","pid":1,"tid":2,"name":"par.chunks","ts":3.5,"dur":0.999}
]}
`

func syntheticTracer() *Tracer {
	tr := newTracer(8)
	tr.Record(Pipeline, "simulate", 0, 2500)
	tr.Record(Pipeline, "Contour", 2500, 1500100)
	tr.Record(tr.Worker(0), "par.chunks", 3000, 1000)
	tr.Record(tr.Worker(1), "par.chunks", 3500, 999)
	return tr
}

// TestChromeTraceGolden holds the exporter bit-for-bit to the golden
// serialization of a fixed synthetic trace.
func TestChromeTraceGolden(t *testing.T) {
	var b strings.Builder
	if err := syntheticTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != chromeGolden {
		t.Errorf("trace JSON drifted from golden.\ngot:\n%s\nwant:\n%s", b.String(), chromeGolden)
	}
}

// TestChromeTraceParses proves the golden output is real JSON with the
// trace-event structure a viewer needs, via the same validator the
// profile subcommand runs on its written trace.json.
func TestChromeTraceParses(t *testing.T) {
	var b strings.Builder
	if err := syntheticTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Errorf("validated %d events, want 11", n)
	}
	// Check timestamps decode to the original nanosecond values.
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "Contour" {
			if ev.TS != 2.5 || ev.Dur != 1500.1 || ev.TID != 0 {
				t.Errorf("Contour event = %+v, want ts 2.5 dur 1500.1 tid 0", ev)
			}
		}
	}
}

// TestValidateChromeTraceRejects exercises the validator's failure
// modes so the Makefile profile target can trust a zero exit.
func TestValidateChromeTraceRejects(t *testing.T) {
	for name, data := range map[string]string{
		"not json":    `{"traceEvents":[`,
		"empty":       `{"traceEvents":[]}`,
		"bad phase":   `{"traceEvents":[{"ph":"Q","name":"x"}]}`,
		"negative ts": `{"traceEvents":[{"ph":"X","name":"x","ts":-1,"dur":1}]}`,
	} {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

// TestUsec pins the microsecond renderer's edge cases.
func TestUsec(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0"}, {999, "0.999"}, {1000, "1"}, {1500, "1.5"},
		{2500, "2.5"}, {1500100, "1500.1"}, {-2500, "-2.5"},
	} {
		if got := usec(tc.ns); got != tc.want {
			t.Errorf("usec(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
