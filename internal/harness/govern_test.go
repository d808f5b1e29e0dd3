package harness

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

func governConfig() *Config {
	return (&Config{
		Pool:      par.NewPool(2),
		Sizes:     []int{16},
		PhaseSize: 16,
		Images:    2,
		ImageSize: 16,
	}).Defaults()
}

func TestGovernorCompare(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Live.TimeSec <= 0 || r.Uniform.TimeSec <= 0 || r.Eq.TimeSec <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		// The budget is a hard ceiling for every policy.
		if r.Live.AvgPowerWatts > r.BudgetWatts*1.02 {
			t.Errorf("%.0f W: live governed average %.2f W busts the budget", r.BudgetWatts, r.Live.AvgPowerWatts)
		}
		if r.StaticErr != nil {
			continue
		}
		if r.Static.AvgPowerWatts > r.BudgetWatts+1e-6 {
			t.Errorf("%.0f W: static plan average %.2f W over budget", r.BudgetWatts, r.Static.AvgPowerWatts)
		}
		// Equal energy means equal-or-lower: the replay target is
		// capped at the static plan's achieved average.
		if r.Eq.AvgPowerWatts > r.Static.AvgPowerWatts*1.02 {
			t.Errorf("%.0f W: equal-energy replay spent %.2f W vs static %.2f W", r.BudgetWatts, r.Eq.AvgPowerWatts, r.Static.AvgPowerWatts)
		}
		// The governor must never lose badly to the policies it knows
		// how to mimic (uniform is its own transient behavior).
		if r.Eq.TimeSec > r.Static.TimeSec*1.05 {
			t.Errorf("%.0f W: equal-energy time %.4fs far worse than static %.4fs", r.BudgetWatts, r.Eq.TimeSec, r.Static.TimeSec)
		}
		if r.Live.TimeSec > r.Uniform.TimeSec*1.05 {
			t.Errorf("%.0f W: governed time %.4fs far worse than uniform %.4fs", r.BudgetWatts, r.Live.TimeSec, r.Uniform.TimeSec)
		}
	}
	if len(res.ClassDemand) == 0 {
		t.Error("no class demand measured")
	}
	if w, ok := res.ClassDemand[core.PowerSensitive]; ok && w <= 0 {
		t.Errorf("nonpositive sensitive demand %.1f", w)
	}

	// The sweep is cached per (size, budgets, cycles): the same request is
	// served from the store, a different cycle count is its own sweep.
	again, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("GovernorCompare re-ran an identical request")
	}
	longer, err := c.GovernorCompare(16, []float64{55, 65}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if longer == res || longer.Cycles != 3 {
		t.Errorf("a 3-cycle request got the cached %d-cycle sweep", longer.Cycles)
	}
}

// TestGovernorFailureRecorded: a failing governor sweep is a failed cell
// like any other — Inject is consulted under its name, Failures and the
// report list it — and costs only its own artifact.
func TestGovernorFailureRecorded(t *testing.T) {
	c := governConfig()
	c.Particles, c.ParticleSteps, c.SimTime = 27, 60, 0.02
	c.Inject = func(name string, size, attempt int) error {
		if name == "Closed-loop governor" {
			return errors.New("injected RAPL loss")
		}
		return nil
	}
	for _, a := range Artifacts {
		_, err := a.Render(c)
		if (err != nil) != (a.Name == "govern") {
			t.Errorf("artifact %s: err = %v", a.Name, err)
		}
	}
	fs := c.Failures()
	if len(fs) != 1 || fs[0].Name != "Closed-loop governor" || fs[0].Size != c.PhaseSize {
		t.Fatalf("Failures() = %v, want exactly the governor sweep at %d^3", fs, c.PhaseSize)
	}
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteReport(&b, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Failed configurations", "Closed-loop governor", "injected RAPL loss", "## Table II"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(b.String(), "## Closed-loop capping") {
		t.Error("report renders a section for the failed sweep")
	}
}

// TestGovernorCompareObservability pins the sweep's new instrumentation:
// each budget row carries the live run's flight recording and drop
// counts, and the merged attribution covers the live joules.
func TestGovernorCompareObservability(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{55, 65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var liveJ float64
	for _, r := range res.Rows {
		if len(r.Live.Decisions) == 0 {
			t.Errorf("%.0f W: no cap decisions recorded", r.BudgetWatts)
		}
		if r.Live.DecisionsDropped != 0 {
			t.Errorf("%.0f W: short run overwrote %d decisions", r.BudgetWatts, r.Live.DecisionsDropped)
		}
		if r.Live.SamplesDropped != 0 {
			t.Errorf("%.0f W: short run dropped %d meter samples", r.BudgetWatts, r.Live.SamplesDropped)
		}
		liveJ += r.Live.AvgPowerWatts * r.Live.TimeSec
	}
	if len(res.Attribution) == 0 {
		t.Fatal("sweep produced no energy attribution")
	}
	var steps int64 = -1
	for _, row := range res.Attribution {
		if row.Stage == "(untraced)" {
			t.Errorf("traced governed pipeline attributed %.2f J to (untraced)", row.Joules)
		}
		if row.Stage == "sim.step" {
			steps = row.Count
		}
	}
	// Span counts come from the one recording, not once per budget: the
	// pipeline couples every 10 hydro steps.
	if want := int64(10 * res.Cycles); steps != want {
		t.Errorf("sim.step count %d, want %d (10 per recorded cycle)", steps, want)
	}
	// Merged across budgets, the attributed joules must still equal the
	// measured live-run total (each phase join is exact).
	if got := obs.TotalJoules(res.Attribution); math.Abs(got-liveJ) > 0.01*liveJ {
		t.Errorf("attributed %.3f J, live runs measured %.3f J", got, liveJ)
	}

	table := GovernTable(res)
	if !strings.Contains(table, "flight recorder:") {
		t.Errorf("table missing flight recorder line:\n%s", table)
	}
	var b strings.Builder
	c.writeGovern(&b)
	if !strings.Contains(b.String(), "Where the joules went") {
		t.Errorf("report missing attribution table:\n%s", b.String())
	}
}

// TestGovernorCompareRecordsOnce: the sweep runs the real pipeline once
// and every budget governs that one recording.
func TestGovernorCompareRecordsOnce(t *testing.T) {
	c := governConfig()
	c.Tracer = obs.NewTracer()
	const cycles = 2
	res, err := c.GovernorCompare(16, []float64{55, 65, 75}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	first := res.Rows[0].Live.Segments
	if len(first) != 2*cycles {
		t.Fatalf("live run governed %d segments, want %d", len(first), 2*cycles)
	}
	for _, r := range res.Rows[1:] {
		if !reflect.DeepEqual(r.Live.Segments, first) {
			t.Errorf("%.0f W governed different segments than %.0f W", r.BudgetWatts, res.Rows[0].BudgetWatts)
		}
	}
	var simulates int
	for _, s := range c.Tracer.Spans() {
		if s.Name == "simulate" {
			simulates++
		}
	}
	if simulates != cycles {
		t.Errorf("the sweep ran %d simulate phases, want %d (one recording)", simulates, cycles)
	}
}

func TestGovernTableAndReportSection(t *testing.T) {
	c := governConfig()
	res, err := c.GovernorCompare(16, []float64{65}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := GovernTable(res)
	for _, want := range []string{"closed-loop", "uniform", "65 W", "class demand"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	var b strings.Builder
	c.writeGovern(&b)
	if !strings.Contains(b.String(), "## Closed-loop capping") {
		t.Errorf("report section missing:\n%s", b.String())
	}
	// A config that never governed renders nothing.
	var empty strings.Builder
	governConfig().writeGovern(&empty)
	if empty.Len() != 0 {
		t.Errorf("unexpected section without a sweep: %q", empty.String())
	}
}
