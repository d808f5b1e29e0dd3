package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"table1", "-sizes", "x,y"}); err == nil {
		t.Error("bad -sizes accepted")
	}
	if err := run([]string{"arch", "-quick", "-alg", "Nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// A non-image -alg fails naming both accepted algorithms, before the
	// database directory exists or an encode worker is running.
	db := filepath.Join(t.TempDir(), "db")
	err := run([]string{"cinema", "-quick", "-alg", "Contour", "-out", db})
	if err == nil || !strings.Contains(err.Error(), `"Ray Tracing"`) || !strings.Contains(err.Error(), `"Volume Rendering"`) {
		t.Errorf("cinema -alg Contour: error %v, want one naming both image algorithms", err)
	}
	if _, statErr := os.Stat(db); !os.IsNotExist(statErr) {
		t.Errorf("rejected cinema -alg left %s behind (stat: %v)", db, statErr)
	}
	if err := run([]string{"advect", "-quick", "-ranks", "2,zero"}); err == nil {
		t.Error("bad -ranks accepted")
	}
	if err := run([]string{"advect", "-quick", "-ranks", "0"}); err == nil {
		t.Error("-ranks 0 accepted")
	}
}

// TestParseFlags: the numeric and list flags write the Config knobs
// directly; -quick fills only what they left unset, wherever it stands on
// the command line; a negative or non-positive entry is a flag error, not
// a silent default.
func TestParseFlags(t *testing.T) {
	all := lookup(verbs, "all")
	for _, args := range [][]string{
		{"-quick", "-images", "7", "-sizes", "8, 12", "-ranks", "2,4"},
		{"-ranks", "2,4", "-sizes", "8, 12", "-images", "7", "-quick"},
	} {
		opt, err := all.parse(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		c := opt.cfg
		if c.Images != 7 || !slices.Equal(c.Sizes, []int{8, 12}) || !slices.Equal(c.Ranks, []int{2, 4}) || opt.distRanks != 4 {
			t.Errorf("%v: explicit flags lost: images %d sizes %v ranks %v distRanks %d", args, c.Images, c.Sizes, c.Ranks, opt.distRanks)
		}
		if c.PhaseSize != 32 || c.ImageSize != 64 || c.Particles != 256 || c.ParticleSteps != 300 || c.MaxSimSize != 32 {
			t.Errorf("%v: quick preset not applied: %+v", args, c)
		}
	}
	opt, err := all.parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := opt.cfg; c.Images != 50 || c.PhaseSize != 128 || len(c.Sizes) != 4 || len(c.Ranks) != 4 || opt.distRanks != 0 {
		t.Errorf("no flags: not the paper defaults: %+v (distRanks %d)", c, opt.distRanks)
	}
	for _, args := range [][]string{
		{"-images", "-1"}, {"-phase-size", "-32"}, {"-steps", "x"}, {"-sizes", "16,0"}, {"-sizes", ""}, {"-ranks", "-2"},
	} {
		if _, err := all.parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRunAdvectCommand: the distributed advection sweep runs at
// demonstration scale in both integrator modes without a mismatch (a
// non-identical cell is a command error).
func TestRunAdvectCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	for _, args := range [][]string{
		{"advect", "-quick", "-ranks", "1,2,4", "-particles", "64", "-steps", "80"},
		{"advect", "-quick", "-ranks", "2", "-adaptive", "-particles", "64", "-steps", "80"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestUsageListsEveryVerb: usage is generated from the verbs table, so
// every dispatchable command — each harness artifact included — is
// listed with its summary, and README.md carries that text verbatim.
func TestUsageListsEveryVerb(t *testing.T) {
	text := usageText()
	if readme, err := os.ReadFile("../../README.md"); err != nil || !strings.Contains(string(readme), text) {
		t.Errorf("README.md's command list is not the generated usage text (%v); regenerate it", err)
	}
	for _, v := range verbs {
		if v.summary == "" || !strings.Contains(text, "\n  "+v.name+" ") || !strings.Contains(text, v.summary) {
			t.Errorf("usage does not list %q with its summary", v.name)
		}
	}
	for _, a := range harness.Artifacts {
		if lookup(verbs, a.Name) == nil {
			t.Errorf("artifact %q has no command", a.Name)
		}
	}
}

// flagNames lists the flags v's set accepts.
func flagNames(v *verb) map[string]bool {
	fs, _ := v.flagSet(&options{cfg: &harness.Config{}})
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// TestVerbRejectsForeignFlags: each verb takes the 12 shared flags plus
// only the ones it reads, so a flag meant for another verb is an error
// instead of being silently ignored.
func TestVerbRejectsForeignFlags(t *testing.T) {
	for _, args := range [][]string{
		{"table1", "-quick", "-cap", "40"},
		{"govern", "-quick", "-budget", "90"},
		{"verify", "-quick", "-csv"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v): error %v, want an undefined-flag error", args, err)
		}
	}
	shared := flagNames(&verb{})
	pairs := 0
	for i := range verbs {
		names := flagNames(&verbs[i])
		for name := range shared {
			if !names[name] {
				t.Errorf("%s lacks the shared flag -%s", verbs[i].name, name)
			}
		}
		pairs += len(names)
	}
	if len(shared) != 12 || len(verbs) != 27 || pairs != 361 {
		t.Errorf("%d shared flags, %d verbs, %d (verb, flag) pairs; want 12, 27, 361", len(shared), len(verbs), pairs)
	}
}

// TestHelpIsNotAnError: -h prints the verb's flags and exits 0.
func TestHelpIsNotAnError(t *testing.T) {
	if err := run([]string{"table1", "-h"}); err != nil {
		t.Errorf("table1 -h: %v", err)
	}
}

// TestDocumentedInvocationsParse: every "vizpower <verb> ..." command line
// in README.md, the Makefile and the verify notes names only flags that
// verb's set defines. Values are not checked, so a documented usage error
// (-images -1) still counts.
func TestDocumentedInvocationsParse(t *testing.T) {
	invocation := regexp.MustCompile(`vizpower ([a-z][a-z0-9]*)([^\n]*)`)
	seen := 0
	for _, doc := range []string{"../../README.md", "../../Makefile", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(data), "\\\n", " ") // join continued shell lines
		for _, m := range invocation.FindAllStringSubmatch(text, -1) {
			// The command line ends at a comment, a closing backquote or
			// the next shell operator.
			line := m[2]
			if i := strings.IndexAny(line, "#`;|>&"); i >= 0 {
				line = line[:i]
			}
			var flags []string
			for _, field := range strings.Fields(line) {
				if name := strings.TrimLeft(field, "-"); name != field && name != "" && name[0] >= 'a' && name[0] <= 'z' {
					flags = append(flags, strings.SplitN(name, "=", 2)[0])
				}
			}
			v := lookup(verbs, m[1])
			if v == nil {
				if len(flags) > 0 {
					t.Errorf("%s: %q: no such command", doc, m[0])
				}
				continue
			}
			names := flagNames(v)
			names["h"], names["help"] = true, true // the flag package's own
			for _, name := range flags {
				if !names[name] {
					t.Errorf("%s: %q: %s takes no -%s", doc, m[0], v.name, name)
				}
			}
			seen++
		}
	}
	if seen < 40 {
		t.Errorf("found only %d documented invocations; is the pattern still right?", seen)
	}
}

// TestAllWritesEveryDeclaredArtifact: `all` writes every file the
// artifact table declares (the on-request ones under -govern), plus the
// Figure 1 renderings and the report, nothing fails at this scale, and
// its last heartbeat line is the run's cost.
func TestAllWritesEveryDeclaredArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run([]string{"all", "-quick", "-govern", "-figres", "64", "-out", dir})
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\nall done in \d+\.\d\ds, peak RSS \d+\.\d MB\n$`).Match(logged) {
		t.Errorf("stderr does not end with the cost line:\n%s", logged)
	}
	want := []string{"report.md"}
	for _, a := range harness.Artifacts {
		want = append(want, a.Files()...)
	}
	for _, name := range want {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty: %v", name, err)
		}
	}
	if pngs, _ := filepath.Glob(filepath.Join(dir, "fig1", "*.png")); len(pngs) != len(harness.Fig1Names) {
		t.Errorf("fig1 holds %d renderings, want %d", len(pngs), len(harness.Fig1Names))
	}
	if _, err := os.Stat(filepath.Join(dir, "failures.txt")); err == nil {
		t.Error("a clean campaign wrote failures.txt")
	}
}

func TestRunQuickCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	// Fast text commands at demonstration scale.
	for _, args := range [][]string{
		{"table1", "-quick"},
		{"fig2a", "-quick", "-csv"},
		{"classify", "-quick", "-extended"},
		{"energy", "-quick"},
		{"verify", "-quick"}, // class claims SKIP at this scale, others must pass
		{"arch", "-quick", "-alg", "Threshold"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunExportWritesVTK(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"export", "-quick", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset.vtk", "contour.vtk", "threshold.vtk", "particle_advection.vtk"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestRunProfileWritesValidTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"profile", "-quick", "-cap", "80", "-cycles", "2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("profile wrote an invalid trace: %v", err)
	}
	// At least the metadata events plus spans for 2 cycles x 8 filters.
	if n < 20 {
		t.Errorf("trace has only %d events", n)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage summary", "Contour", "par.For"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("summary.txt missing %q", want)
		}
	}
}

// TestProfileJoulesCoverTheMeteredRun: -ranks runs the distributed
// advection cell after the meter stopped, so its rank-track spans
// (dist.send/recv/gather, advect.advance) appear in the stage summary
// but share none of the metered joules.
func TestProfileJoulesCoverTheMeteredRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"profile", "-quick", "-cap", "80", "-cycles", "2", "-ranks", "1,2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	stages, joules, ok := strings.Cut(string(sum), "where the joules went")
	if !ok {
		t.Fatalf("summary.txt has no joules table:\n%s", sum)
	}
	if !strings.Contains(stages, "advect.advance") {
		t.Errorf("the stage summary misses the unmetered rank spans:\n%s", stages)
	}
	for _, line := range strings.Split(joules, "\n") {
		if f := strings.Fields(line); len(f) > 0 && (strings.HasPrefix(f[0], "dist.") || f[0] == "advect.advance") {
			t.Errorf("the joules table charges an unmetered stage: %q", line)
		}
	}
}

func TestRunGlobalTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "t1.json")
	prof := filepath.Join(dir, "t1.pprof")
	if err := run([]string{"table1", "-quick", "-trace", trace, "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("-trace wrote an invalid trace: %v", err)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("-cpuprofile wrote nothing: %v", err)
	}
}

func TestRunCinemaWritesDatabase(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"cinema", "-quick", "-alg", "Ray Tracing", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("missing index.json: %v", err)
	}
	// -alg is optional: cinema's own default is volume rendering.
	dir = t.TempDir()
	if err := run([]string{"cinema", "-quick", "-out", dir}); err != nil {
		t.Fatalf("cinema without -alg: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("cinema without -alg: missing index.json: %v", err)
	}
}

// TestOverprovisionBudget: -budget defaults to 55 W per node; an explicit
// budget below the node floors fails with cluster.BalancedCaps' error
// instead of being replaced (it used to print "machine-room budget 440 W"
// for -budget 200).
func TestOverprovisionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out, err := runCaptured(t, "overprovision", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "machine-room budget 440 W") {
		t.Errorf("overprovision without -budget: want the 440 W default:\n%s", out)
	}
	out, err = runCaptured(t, "overprovision", "-quick", "-budget", "200")
	if err == nil || !strings.Contains(err.Error(), "below the") || !strings.Contains(err.Error(), "sum of node floors") {
		t.Errorf("overprovision -budget 200: error %v, want the node-floor error", err)
	}
	if strings.Contains(out, "machine-room budget") {
		t.Errorf("overprovision -budget 200 printed a budget:\n%s", out)
	}
}

// runCaptured runs a command and returns what it printed to stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return string(<-printed), runErr
}

// TestFeedbackClampsTargetAboveTDP: the feedback verb runs the integral
// policy under the engine's target rules, so a target no package can be
// programmed to is reported as the TDP it was clamped to (it used to
// print "settled at a 200.0 W limit" on a 120 W part).
func TestFeedbackClampsTargetAboveTDP(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out, err := runCaptured(t, "feedback", "-quick", "-cap", "200")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"target average 120 W", "controller settled at a 120.0 W limit"} {
		if !strings.Contains(out, want) {
			t.Errorf("feedback -cap 200 output lacks %q:\n%s", want, out)
		}
	}
	if err := run([]string{"feedback", "-quick", "-cap", "20"}); err == nil {
		t.Error("feedback accepted a target below the cap floor")
	}
}

// TestCapVerbsFollowTheTargetRules: trace and profile program -cap under
// the rules feedback follows, so the cap they print is the one their rows
// ran under. Below the floor is an error naming it (trace -cap 30 used to
// print "under a 30 W cap" over the 40 W floor's rows); above TDP is
// reported as TDP (-cap 200 used to print 200 W over 120 W rows).
func TestCapVerbsFollowTheTargetRules(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	for _, verb := range []string{"trace", "profile"} {
		args := []string{verb, "-quick", "-cycles", "1"}
		if verb == "profile" {
			args = append(args, "-out", t.TempDir())
		}
		out, err := runCaptured(t, append(args, "-cap", "200")...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "under a 120 W cap") {
			t.Errorf("%s -cap 200 output does not report the 120 W TDP:\n%s", verb, out)
		}
		err = run(append(args, "-cap", "30"))
		if err == nil || !strings.Contains(err.Error(), "40 W cap floor") {
			t.Errorf("%s -cap 30: err = %v, want one naming the 40 W cap floor", verb, err)
		}
	}
}

// TestGovernHonoursCycles: an explicit -cycles is the sweep's cycle count
// (it used to be raised to harness.GovernCycles), and a count below the
// governor's floor of 2 is an error, not a silent raise.
func TestGovernHonoursCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out, err := runCaptured(t, "govern", "-quick", "-cycles", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "32^3, 2 cycles\n") {
		t.Errorf("govern -cycles 2: header does not read 2 cycles:\n%s", out)
	}
	if _, err := runCaptured(t, "govern", "-quick", "-cycles", "1"); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("govern -cycles 1: error %v, want one naming the floor of 2", err)
	}
}

// TestCycleVerbsNeedOneCycle: trace, profile and feedback run at least
// one in situ cycle, so -cycles below 1 is an error naming the floor
// (feedback used to run one cycle and trace to print an empty run).
func TestCycleVerbsNeedOneCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	for _, verb := range []string{"trace", "profile", "feedback"} {
		for _, n := range []string{"0", "-4"} {
			args := []string{verb, "-quick", "-cycles", n}
			if verb == "profile" {
				args = append(args, "-out", t.TempDir())
			}
			out, err := runCaptured(t, args...)
			if err == nil || !strings.Contains(err.Error(), "at least 1") {
				t.Errorf("%s -cycles %s: error %v, want one naming the floor of 1", verb, n, err)
			}
			if strings.Contains(out, "segment") {
				t.Errorf("%s -cycles %s printed a run:\n%s", verb, n, out)
			}
		}
	}
}
