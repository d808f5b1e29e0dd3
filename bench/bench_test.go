package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// layers are the first name segments a per-layer metric may carry: this
// repository's packages, plus cmd and the benchmark itself.
var layers = map[string]bool{
	"par": true, "dpp": true, "mesh": true, "sim": true, "viz": true, "harness": true, "cmd": true,
	"core": true, "power": true, "cpu": true, "rapl": true, "perfctr": true, "dist": true,
	"render": true, "cinema": true, "plot": true, "obs": true, "serve": true, "bench": true,
}

func loadForTest(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestDeclaration holds BENCHMARK.json to the contract the driver reads
// it by: exact keys, name and unit alphabets, counts and bounds.
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("missing key %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(raw))
	}
	exactKeys := func(list json.RawMessage, want ...string) {
		t.Helper()
		var entries []map[string]any
		if err := json.Unmarshal(list, &entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e) != len(want) {
				t.Errorf("%v: want exactly the keys %v", e, want)
			}
			for _, k := range want {
				if _, ok := e[k]; !ok {
					t.Errorf("%v: missing key %q", e, k)
				}
			}
		}
	}
	exactKeys(raw["workloads"], "name", "why")
	exactKeys(raw["end_to_end"], "name", "unit", "better", "bound")
	exactKeys(raw["per_layer"], "name", "unit", "better")

	decl := loadForTest(t)
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if n := len(decl.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range decl.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}
	for _, p := range decl.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	direction := func(m declaredMetric) {
		t.Helper()
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	setup := false
	for _, m := range decl.EndToEnd {
		name(m.Name)
		direction(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range decl.PerLayer {
		name(m.Name)
		direction(m)
		if layer, _, _ := strings.Cut(m.Name, "."); !layers[layer] {
			t.Errorf("%s: %q is not a layer of this repository", m.Name, layer)
		}
	}
	for n := range inexactCounts {
		if m := decl.find(n); m == nil || m.Unit != "count" {
			t.Errorf("inexact count %s is not declared as a per-layer count", n)
		}
	}
}

// TestToyRuns runs the in-process workloads and the whole traced ledger
// at toy scale, and holds what they emit against the declaration: every
// declared metric measured, nothing undeclared, no failed operation. The
// campaign subprocess is the one thing left out, and with it the one
// metric that needs it.
func TestToyRuns(t *testing.T) {
	decl := loadForTest(t)
	if len(workloads) != len(decl.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		fn, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
			continue
		}
		if w.Name == "campaign" {
			continue // builds and runs cmd/vizpower
		}
		t.Run(w.Name, func(t *testing.T) {
			out := newRun(decl)
			fn(toyScale, 1, 0.2, t.TempDir(), out)
			res, err := out.result(false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, out.messages)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g, an end-to-end metric is never 0", name, m.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		out := newRun(decl)
		rec := newRecorder()
		runLedger(toyScale, "serve-churn", 1, t.TempDir(), rec, out)
		if out.failed > 0 || out.attempted == 0 {
			t.Errorf("attempted %d, failed %d: %v", out.attempted, out.failed, out.messages)
		}
		const needsSubprocess = "cmd.vizpower.unattributed_ms"
		for _, m := range decl.PerLayer {
			if _, ok := out.values[m.Name]; !ok && m.Name != needsSubprocess {
				t.Errorf("%s is declared but the traced run did not measure it", m.Name)
			}
		}
		for name := range out.values {
			if decl.find(name) == nil {
				t.Errorf("%s was measured but is not declared", name)
			}
		}
		if c := out.values["bench.span_coverage_frac"]; c < 0.9 {
			t.Errorf("spans cover %.2f of the replay and the kernel round, want at least 0.9", c)
		}
		path := t.TempDir() + "/trace.json"
		if err := rec.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("trace has %d events: %v", len(trace.TraceEvents), err)
		}
	})
}

// TestSelfTimes pins the recorder's arithmetic: a span's self time is
// its duration minus what its children cover.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 50, End: 90, Parent: 0},
		{Name: "leaf", Start: 55, End: 60, Parent: 2},
	}
	self := r.selfTimes()
	if self["root"] != 30 || self["child"] != 65 || self["leaf"] != 5 {
		t.Errorf("self times %v", self)
	}
	if c := r.coverage("root"); c != 0.7 {
		t.Errorf("coverage %g, want 0.7", c)
	}
}
