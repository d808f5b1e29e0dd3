package harness

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/study"
)

// Phase1 runs the paper's Phase 1 (Section IV-D1): the contour algorithm
// at the phase data-set size across all nine power caps — the baseline
// for the later phases and the content of Table I.
func (c *Config) Phase1() (*study.Run, error) {
	c.Defaults()
	return c.runNamed("Contour", c.PhaseSize)
}

// runNamed runs (cached) the algorithm of that name at one size.
func (c *Config) runNamed(name string, size int) (*study.Run, error) {
	f, err := c.FilterByName(name)
	if err != nil {
		return nil, err
	}
	return c.Run(f, size)
}

// Phase2 runs Phase 2 (Section IV-D2): all eight algorithms at the phase
// size across all caps — the content of Table II and Figures 2 and 3.
func (c *Config) Phase2() ([]*study.Run, error) {
	c.Defaults()
	return c.RunAll(c.PhaseSize)
}

// RunsBySize gathers one algorithm's runs across every configured size,
// for the Fig. 4–6 IPC-vs-size series.
func (c *Config) RunsBySize(name string) (map[int]*study.Run, error) {
	c.Defaults()
	out := make(map[int]*study.Run, len(c.Sizes))
	for _, size := range c.SortedSizes() {
		r, err := c.runNamed(name, size)
		if err != nil {
			return nil, err
		}
		out[size] = r
	}
	return out, nil
}

// TotalConfigurations returns the size of the study matrix
// (caps × algorithms × sizes); with the paper's defaults this is
// 9 × 8 × 4 = 288.
func (c *Config) TotalConfigurations() int {
	c.Defaults()
	return len(c.Caps) * len(c.Filters()) * len(c.Sizes)
}

// CheckClaims gathers the cells the paper's headline findings are judged
// on at the configured scale — the full Phase 2 set, and the by-size
// runs the size claims need — and evaluates them (study.Claims).
func (c *Config) CheckClaims() ([]study.Claim, error) {
	c.Defaults()
	runs, err := c.Phase2()
	if err != nil {
		return nil, err
	}
	// The claims compare algorithms against each other, so a partial
	// Phase 2 (some cells failed and were skipped) cannot be judged.
	if len(runs) != len(c.Filters()) {
		return nil, fmt.Errorf("harness: claims need the full Phase 2 set, only %d of %d algorithms ran\n%s",
			len(runs), len(c.Filters()), FailureReport(c.Failures()))
	}
	sizes := c.SortedSizes()
	bySize := map[string]map[int]*study.Run{}
	for _, name := range study.SizeClaimAlgorithms(sizes) {
		if bySize[name], err = c.RunsBySize(name); err != nil {
			return nil, err
		}
	}
	// The class claims only hold when the rendering workloads run at a
	// paper-like scale (the 50-image database); a -quick demonstration
	// with tiny images makes volume rendering launch-overhead-bound and
	// meaningless to classify.
	renderScale := c.Images*c.ImageSize*c.ImageSize >= 300_000 && c.PhaseSize >= 48
	return study.Claims(runs, bySize, sizes, renderScale), nil
}

// CompareArchitectures measures one algorithm at the phase size on the
// study pool and prices that cell on each architecture
// (study.PriceArchitectures).
func (c *Config) CompareArchitectures(algName string, specs []cpu.Spec) ([]study.ArchRow, error) {
	c.Defaults()
	run, err := c.runNamed(algName, c.PhaseSize)
	if err != nil {
		return nil, err
	}
	return study.PriceArchitectures(&run.Cell, specs), nil
}

// backendNames are the algorithms whose runs carry a DPP profile, in the
// order BackendCompare pairs them.
var backendNames = []string{"Contour", "Threshold"}

// BackendCompare gathers the run of each backend-capable algorithm at
// one size (executed, or fetched from the cell store like every sweep
// cell) and pairs it with its DPP price (study.BackendPairs). Nothing
// executes for the DPP half. An algorithm with a failed cell is skipped;
// the error return is non-nil only when nothing ran.
func (c *Config) BackendCompare(size int) ([]study.BackendPair, error) {
	runs, err := partial(len(backendNames), func(i int) (*study.Run, error) { return c.runNamed(backendNames[i], size) })
	if err != nil {
		return nil, err
	}
	return study.BackendPairs(runs, c.Caps), nil
}
