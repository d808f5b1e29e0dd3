package harness

import "repro/internal/study"

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// ClearFailures resets the failure record, e.g. between campaigns on a
// reused Config.
func (c *Config) ClearFailures() { c.run.failures = nil }

// Phase3 runs Phase 3 (Section IV-D3): the full matrix over every
// configured size — the content of Table III and Figures 4–6. The result
// maps size → runs in filter order. Failed cells are recorded (see
// Failures) and skipped, so one bad algorithm/cap/size cell yields a
// partial matrix plus an error report; the error return is non-nil only
// when nothing at all ran.
func (c *Config) Phase3() (map[int][]*study.Run, error) {
	c.Defaults()
	sizes := c.SortedSizes()
	out := make(map[int][]*study.Run, len(sizes))
	_, err := partial(len(sizes), func(i int) ([]*study.Run, error) {
		runs, err := c.RunAll(sizes[i])
		if err == nil {
			out[sizes[i]] = runs
		}
		return runs, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// filterNames returns the configured algorithm names in table order.
func (c *Config) filterNames() []string {
	var names []string
	for _, f := range c.Filters() {
		names = append(names, f.Name())
	}
	return names
}
