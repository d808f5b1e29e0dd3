package harness

// Phase1 runs the paper's Phase 1 (Section IV-D1): the contour algorithm
// at the phase data-set size across all nine power caps — the baseline
// for the later phases and the content of Table I.
func (c *Config) Phase1() (*AlgoRun, error) {
	c.Defaults()
	f, err := c.FilterByName("Contour")
	if err != nil {
		return nil, err
	}
	return c.Run(f, c.PhaseSize)
}

// Phase2 runs Phase 2 (Section IV-D2): all eight algorithms at the phase
// size across all caps — the content of Table II and Figures 2 and 3.
func (c *Config) Phase2() ([]*AlgoRun, error) {
	c.Defaults()
	return c.RunAll(c.PhaseSize)
}

// RunsBySize gathers one algorithm's runs across every configured size,
// for the Fig. 4–6 IPC-vs-size series.
func (c *Config) RunsBySize(name string) (map[int]*AlgoRun, error) {
	c.Defaults()
	f, err := c.FilterByName(name)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*AlgoRun, len(c.Sizes))
	for _, size := range c.SortedSizes() {
		r, err := c.Run(f, size)
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
