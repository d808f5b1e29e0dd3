// Command bench is the repository's one benchmark: four workloads that
// stress different layers of the stack, measured end to end with tracing
// off, plus a traced run that times the calls this program makes into
// each layer's public functions. BENCHMARK.json at the repository root
// declares the workloads, the metrics, their units and regression
// bounds; README.md in this directory explains every choice.
//
//	bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without --workload it runs every workload in a child process each,
// untraced and then traced, and writes bench/out/results.json; with --aa
// it runs both sets twice, order alternated, and compares them against the
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// scale is the size of everything the benchmark runs. The driver always
// uses fullScale; the smoke test uses toyScale.
type scale struct {
	grid, simSize                       int // data-set edge, and the largest direct hydro run
	images, imageSize, particles, steps int // render and advection knobs of a kernel round
	isovalues                           int
	setups, warmRounds                  int           // set-up repetitions (median reported), warm-up rounds
	campaign                            []string      // arguments of `vizpower all`; empty: no subprocess
	replaySizes                         []int         // the in-process replay's -sizes (last is the phase size)
	replayFigRes                        int           // the replay's -figres
	churnSizes, sweepSizes              []int         // sizes the churning clients ask for
	clients                             int           // closed-loop client goroutines
	microDur                            time.Duration // time spent on each micro row
	microN                              int           // elements of the 1m micro rows
	tracedRequests, tracedRounds        int           // length of the traced serve segments and kernel rows
	stepSize                            int           // grid of the hydro-step row
}

var fullScale = scale{
	grid: 64, simSize: 64,
	images: 50, imageSize: 128, particles: 1024, steps: 1000, isovalues: 10,
	setups: 5, warmRounds: 2,
	campaign:    []string{"-quick", "-sizes", "16,32", "-phase-size", "32", "-figres", "128", "-govern"},
	replaySizes: []int{16, 32}, replayFigRes: 128,
	churnSizes: []int{24, 32, 40, 48}, sweepSizes: []int{16, 24, 32},
	clients:  2,
	microDur: 150 * time.Millisecond, microN: 1 << 20,
	tracedRequests: 300, tracedRounds: 2,
	stepSize: 32,
}

var toyScale = scale{
	grid: 16, simSize: 16,
	images: 4, imageSize: 32, particles: 32, steps: 50, isovalues: 3,
	setups: 1, warmRounds: 0,
	replaySizes: []int{8, 12}, replayFigRes: 32,
	churnSizes: []int{8, 12}, sweepSizes: []int{8},
	clients:  2,
	microDur: 2 * time.Millisecond, microN: 1 << 12,
	tracedRequests: 20, tracedRounds: 1,
	stepSize: 12,
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects what one workload run measured. Methods are safe for the
// concurrent clients of the serve workloads.
type run struct {
	decl *declaration

	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
	values    map[string]float64
	samples   map[string]int
}

func newRun(decl *declaration) *run {
	return &run{decl: decl, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation; the first few reasons are kept for
// standard error.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.messages) < 10 {
		r.messages = append(r.messages, fmt.Sprintf(format, args...))
	}
}

// fatal records a failure that prevented the workload from running at
// all, so the run reports at least one attempted, failed operation.
func (r *run) fatal(format string, args ...any) {
	r.attempt()
	r.fail(format, args...)
}

// set records a metric value and the number of samples behind it.
func (r *run) set(name string, value float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = value
	r.samples[name] = n
}

// latencies records the two operation metrics every workload shares:
// the median operation time and operations completed per second of the
// measuring window.
func (r *run) latencies(opMs []float64, windowSec float64) {
	r.set("op_p50_ms", median(opMs), len(opMs))
	r.set("ops_per_s", float64(len(opMs))/windowSec, len(opMs))
}

// result checks the recorded metrics against the declared set — every
// declared metric of this kind present, nothing undeclared — and builds
// the line the driver reads.
func (r *run) result(traced bool) (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	declared := r.decl.EndToEnd
	if traced {
		declared = r.decl.PerLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range declared {
		v, ok := r.values[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

// print writes every metric by name with its unit, sample count and
// bound, then the failure reasons.
func (r *run) print(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-36s %14.6g %-8s n=%d", name, m.Value, m.Unit, r.samples[name])
		if d := r.decl.find(name); d != nil && d.Bound > 0 {
			line += fmt.Sprintf("  %s is better, bound %.0f%%", d.Better, d.Bound*100)
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, msg := range r.messages {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
}

// workloads maps each name BENCHMARK.json declares to its untraced run:
// set-up, warm-up, then operations for the given seconds, recording the
// four end-to-end metrics and every failed output check in out.
var workloads = map[string]func(sc scale, seed int64, seconds float64, tmp string, out *run){
	"campaign":   func(sc scale, _ int64, seconds float64, tmp string, out *run) { runCampaign(sc, seconds, tmp, out) },
	"kernels-64": func(sc scale, seed int64, seconds float64, _ string, out *run) { runKernels(sc, seed, seconds, out) },
	"serve-warm": func(sc scale, seed int64, seconds float64, tmp string, out *run) {
		runServe(sc, false, seed, seconds, tmp, out)
	},
	"serve-churn": func(sc scale, seed int64, seconds float64, tmp string, out *run) {
		runServe(sc, true, seed, seconds, tmp, out)
	},
}

// runWorkload runs one workload in this process: the end-to-end metrics
// with tracing off, or the per-layer metrics of a traced run.
func runWorkload(decl *declaration, sc scale, name string, seed int64, seconds float64, traced bool, outDir string) (*run, result, error) {
	out := newRun(decl)
	fn, ok := workloads[name]
	if !ok {
		return out, result{}, fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := scratchDir()
	if err != nil {
		return out, result{}, err
	}
	defer os.RemoveAll(tmp)
	if traced {
		rec := newRecorder()
		runLedger(sc, name, seed, tmp, rec, out)
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return out, result{}, err
			}
			if err := rec.writeChrome(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				return out, result{}, err
			}
		}
	} else {
		fn(sc, seed, seconds, tmp, out)
	}
	res, err := out.result(traced)
	return out, res, err
}

// scratchDir makes a temporary directory inside the checkout (under
// .bench_build, which run.sh also builds into); the caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics of a traced run")
		outDir   = flag.String("out", "bench/out", "directory for results.json and trace-<workload>.json")
		aa       = flag.Bool("aa", false, "run the untraced set twice on this build and compare against the bounds")
	)
	flag.Parse()
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *workload == "" {
		os.Exit(runAll(decl, *seed, *seconds, *outDir, *aa))
	}
	out, res, err := runWorkload(decl, fullScale, *workload, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	out.print(res)
	line, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to encode
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
