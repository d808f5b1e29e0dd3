package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childRun is one workload run made by the runner, in a process of its
// own so heap growth and peak memory do not leak between workloads.
type childRun struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Set      string  `json:"set"`
	WallSec  float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// inexactCounts are the per-layer counts that depend on scheduling. Every
// other metric whose unit is count or bytes is computed from the inputs
// alone: two runs of one build on one seed must agree on it bit for bit.
var inexactCounts = map[string]bool{
	"par.steals": true, "serve.admission.queued": true, "serve.cache.hits": true,
}

func runChild(workload string, seed int64, seconds float64, traced bool, set, outDir string) (childRun, error) {
	cr := childRun{Workload: workload, Traced: traced, Set: set}
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", outDir)
	cmd.Stderr = os.Stderr
	t := time.Now()
	stdout, runErr := cmd.Output()
	cr.WallSec = time.Since(t).Seconds()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &cr.Result); err != nil {
		return cr, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	return cr, nil // a run that printed its result and exited 1 reports correct=false
}

// runAll is the command a person runs: every workload untraced, then
// traced; with aa, both sets twice in alternating order and compared.
func runAll(decl *declaration, seed int64, seconds float64, outDir string, aa bool) int {
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	type pass struct {
		set    string
		order  []string
		traced bool
	}
	passes := []pass{{"A", names, false}}
	if aa {
		passes = append(passes, pass{"B", reversed, false})
	}
	passes = append(passes, pass{"A", names, true})
	if aa {
		passes = append(passes, pass{"B", reversed, true})
	}

	exit := 0
	var runs []childRun
	type key struct {
		workload, set string
		traced        bool
	}
	results := map[key]result{}
	start := time.Now()
	for _, p := range passes {
		for _, w := range p.order {
			cr, err := runChild(w, seed, seconds, p.traced, p.set, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			runs = append(runs, cr)
			results[key{w, p.set, p.traced}] = cr.Result
			kind := "untraced"
			if p.traced {
				kind = "traced"
			}
			fmt.Printf("== %s, %s, set %s: %.1f s wall, attempted %d, failed %d\n",
				w, kind, p.set, cr.WallSec, cr.Result.Attempted, cr.Result.Failed)
			if !cr.Result.Correct {
				exit = 1
			}
			list := decl.EndToEnd
			if p.traced {
				list = decl.PerLayer
			}
			for _, m := range list {
				line := fmt.Sprintf("%-36s %14.6g %s", m.Name, cr.Result.Metrics[m.Name].Value, m.Unit)
				if m.Bound > 0 {
					line += fmt.Sprintf("  (%s is better, bound %.0f%%)", m.Better, m.Bound*100)
				}
				fmt.Println(line)
			}
		}
	}
	fmt.Printf("total wall clock: %.1f s\n", time.Since(start).Seconds())

	if aa {
		fmt.Println("\nA/A: two sets of runs of one build")
		fmt.Printf("%-12s %-14s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
		for _, w := range names {
			a, b := results[key{w, "A", false}], results[key{w, "B", false}]
			for _, m := range decl.EndToEnd {
				va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
				diff := math.Abs(vb-va) / va
				verdict := ""
				if diff > m.Bound {
					verdict, exit = "  EXCEEDS", 1
				}
				fmt.Printf("%-12s %-14s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", w, m.Name, va, vb, diff*100, m.Bound*100, verdict)
			}
			a, b = results[key{w, "A", true}], results[key{w, "B", true}]
			for _, m := range decl.PerLayer {
				if (m.Unit != "count" && m.Unit != "bytes") || inexactCounts[m.Name] {
					continue
				}
				if va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value; va != vb {
					fmt.Printf("%-12s %-28s %g != %g  COUNT DIFFERS\n", w, m.Name, va, vb)
					exit = 1
				}
			}
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	data, _ := json.MarshalIndent(map[string]any{ // plain numbers and strings: cannot fail
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit, "seed": seed, "seconds": seconds, "runs": runs,
	}, "", "  ")
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return exit
}
