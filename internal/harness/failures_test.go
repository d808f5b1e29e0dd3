package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestPhase3PartialOnInjectedFailure is the resilient-sweep acceptance
// check: one injected permanently-failing cell yields results for every
// other cell of the matrix plus a per-cell error report, instead of
// losing the whole 288-configuration study.
func TestPhase3PartialOnInjectedFailure(t *testing.T) {
	c := tinyConfig()
	boom := errors.New("node OOM")
	c.Inject = func(name string, size, attempt int) error {
		if name == "Slice" && size == 16 {
			return boom
		}
		return nil
	}
	all, err := c.Phase3()
	if err != nil {
		t.Fatalf("Phase3 aborted instead of degrading: %v", err)
	}
	if len(all) != 2 {
		t.Fatalf("Phase3 sizes = %d, want 2", len(all))
	}
	if got := len(all[8]); got != 8 {
		t.Errorf("unaffected size 8 ran %d of 8 algorithms", got)
	}
	if got := len(all[16]); got != 7 {
		t.Errorf("size 16 ran %d algorithms, want 7 (Slice skipped)", got)
	}
	for _, r := range all[16] {
		if r.Name == "Slice" {
			t.Error("failed cell still present in the result set")
		}
	}
	fs := c.Failures()
	if len(fs) != 1 {
		t.Fatalf("failures = %d, want 1: %v", len(fs), fs)
	}
	f := fs[0]
	if f.Name != "Slice" || f.Size != 16 || f.Attempts != 1 || !errors.Is(f.Err, boom) {
		t.Errorf("failure record wrong: %+v", f)
	}
	rep := FailureReport(fs)
	for _, want := range []string{"Slice", "16^3", "node OOM", "partial"} {
		if !strings.Contains(rep, want) {
			t.Errorf("failure report missing %q:\n%s", want, rep)
		}
	}
	if FailureReport(nil) != "" {
		t.Error("empty failure set should render an empty report")
	}
}

// cellKinds drives one cell of each kind through the shared cell policy
// (runCell): inject is the name Config.Inject is asked about and a
// CellError carries.
var cellKinds = []struct {
	kind   string
	inject string
	cfg    func() *Config
	run    func(c *Config) (any, error)
}{
	{"algorithm cell", "Threshold", tinyConfig, func(c *Config) (any, error) {
		f, err := c.FilterByName("Threshold")
		if err != nil {
			return nil, err
		}
		return c.Run(f, 8)
	}},
	{"distributed-advection cell", "Particle Advection ranks=2", tinyConfig, func(c *Config) (any, error) {
		return c.AdvectDist(8, 2)
	}},
	{"governor sweep", "Closed-loop governor", governConfig, func(c *Config) (any, error) {
		return c.GovernorCompare(16, []float64{65}, 2)
	}},
}

// forEachCellKind runs body once per cell kind on a fresh config whose
// Inject fails the kind's cell with fail(attempt) and counts the
// consultations; the heartbeat is captured.
func forEachCellKind(t *testing.T, fail func(attempt int) error, body func(t *testing.T, c *Config, run func() (any, error), consulted *[]int, hb *bytes.Buffer)) {
	for _, k := range cellKinds {
		t.Run(k.kind, func(t *testing.T) {
			c := k.cfg()
			var consulted []int
			var hb bytes.Buffer
			c.Heartbeat = &hb
			c.Inject = func(name string, size, attempt int) error {
				if name != k.inject {
					return nil
				}
				consulted = append(consulted, attempt)
				return fail(attempt)
			}
			body(t, c, func() (any, error) { return k.run(c) }, &consulted, &hb)
			// One heartbeat line per executed cell, whatever its kind or
			// outcome (the advection cell also executes its oracle).
			if lines := strings.Count(hb.String(), "\n"); lines != c.run.cellsDone {
				t.Errorf("%d heartbeat lines for %d executed cells:\n%s", lines, c.run.cellsDone, hb.String())
			}
			for _, f := range c.Failures() {
				if f.Name != k.inject {
					t.Errorf("failure recorded under %q, want %q", f.Name, k.inject)
				}
			}
		})
	}
}

// TestRunRetriesTransientFailures: a cell of any kind failing with a
// transient error (dist.IsTransient) is retried with backoff — Inject
// consulted before every attempt — and succeeds without being recorded
// as a failure; asked for again, it is served from the store.
func TestRunRetriesTransientFailures(t *testing.T) {
	flaky := func(attempt int) error {
		if attempt < 2 {
			return &dist.TransientError{Err: errors.New("flaky interconnect")}
		}
		return nil
	}
	forEachCellKind(t, flaky, func(t *testing.T, c *Config, run func() (any, error), consulted *[]int, hb *bytes.Buffer) {
		r, err := run()
		if err != nil {
			t.Fatalf("transient failure not retried to success: %v", err)
		}
		if got := fmt.Sprint(*consulted); got != "[0 1 2]" {
			t.Errorf("Inject consulted for attempts %s, want [0 1 2]", got)
		}
		if fs := c.Failures(); len(fs) != 0 {
			t.Errorf("recovered cell still recorded as failed: %v", fs)
		}
		if !strings.Contains(hb.String(), " done in ") || strings.Contains(hb.String(), "FAILED") {
			t.Errorf("heartbeat of a recovered cell:\n%s", hb.String())
		}
		done := c.run.cellsDone
		again, err := run()
		if err != nil || again != r {
			t.Errorf("cached cell not returned as is: %v, %v", again, err)
		}
		if len(*consulted) != 3 || c.run.cellsDone != done {
			t.Errorf("cached cell re-executed: Inject consulted %d times, %d -> %d cells", len(*consulted), done, c.run.cellsDone)
		}
	})
}

// TestRunDoesNotRetryPermanentFailures: non-transient errors fail the
// cell on the first attempt, whatever its kind.
func TestRunDoesNotRetryPermanentFailures(t *testing.T) {
	broken := func(int) error { return errors.New("bad dataset") }
	forEachCellKind(t, broken, func(t *testing.T, c *Config, run func() (any, error), consulted *[]int, hb *bytes.Buffer) {
		if _, err := run(); err == nil {
			t.Fatal("permanent failure reported success")
		}
		if len(*consulted) != 1 {
			t.Errorf("permanent failure attempted %d times, want 1", len(*consulted))
		}
		fs := c.Failures()
		if len(fs) != 1 || fs[0].Attempts != 1 {
			t.Errorf("failure record wrong: %v", fs)
		}
		if !strings.Contains(hb.String(), "FAILED after 1 attempt(s)") {
			t.Errorf("heartbeat missing the FAILED line:\n%s", hb.String())
		}
		c.ClearFailures()
		if len(c.Failures()) != 0 {
			t.Error("ClearFailures left records behind")
		}
	})
}

// TestExhaustedTransientRetriesRecorded: a cell that stays transiently
// broken is retried maxRetries times, then recorded with its attempt
// count; failing again later replaces that record instead of adding one.
func TestExhaustedTransientRetriesRecorded(t *testing.T) {
	runs := 0 // numbers each run's errors, so a replaced record shows
	flaky := func(attempt int) error {
		if attempt == 0 {
			runs++
		}
		return &dist.TransientError{Err: fmt.Errorf("always flaky (run %d)", runs)}
	}
	forEachCellKind(t, flaky, func(t *testing.T, c *Config, run func() (any, error), consulted *[]int, hb *bytes.Buffer) {
		_, err := run()
		if !dist.IsTransient(err) {
			t.Fatalf("final error lost its transient marking: %v", err)
		}
		if got := fmt.Sprint(*consulted); got != "[0 1 2]" {
			t.Errorf("Inject consulted for attempts %s, want [0 1 2]", got)
		}
		fs := c.Failures()
		if len(fs) != 1 || fs[0].Attempts != 3 {
			t.Errorf("want 1 failure after 3 attempts (1 + maxRetries), got %v", fs)
		}
		if _, err := run(); err == nil {
			t.Fatal("failed cell was cached as a success")
		}
		if got := fmt.Sprint(*consulted); got != "[0 1 2 0 1 2]" {
			t.Errorf("Inject consulted for attempts %s, want [0 1 2 0 1 2]", got)
		}
		last := fmt.Sprintf("(run %d)", runs)
		if fs := c.Failures(); len(fs) != 1 || fs[0].Attempts != 3 || !strings.Contains(fs[0].Err.Error(), last) {
			t.Errorf("want the cell's one record replaced by the second run's %s failure, got %v", last, fs)
		}
	})
}

// TestClaimsRefusePartialPhase2: the cross-algorithm claims cannot be
// judged from a partial set, so they error out with the failure report
// rather than nil-dereferencing a missing algorithm.
func TestClaimsRefusePartialPhase2(t *testing.T) {
	c := tinyConfig()
	c.Inject = func(name string, size, attempt int) error {
		if name == "Contour" && size == c.PhaseSize {
			return errors.New("injected")
		}
		return nil
	}
	if _, err := c.CheckClaims(); err == nil {
		t.Fatal("claims accepted a partial Phase 2")
	} else if !strings.Contains(err.Error(), "7 of 8") {
		t.Errorf("claims error should count the partial set: %v", err)
	}
}

// TestWriteReportIncludesFailures: the campaign report carries the
// partial-on-failure error section.
func TestWriteReportIncludesFailures(t *testing.T) {
	c := tinyConfig()
	c.Inject = func(name string, size, attempt int) error {
		if name == "Ray Tracing" && size == c.PhaseSize {
			return errors.New("injected raytrace loss")
		}
		return nil
	}
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 7 {
		t.Fatalf("Phase2 ran %d algorithms, want 7", len(runs))
	}
	var buf strings.Builder
	if err := c.WriteReport(&buf, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## Failed configurations", "Ray Tracing", "injected raytrace loss"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
