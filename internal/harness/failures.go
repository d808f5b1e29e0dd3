package harness

import (
	"fmt"
	"strings"
)

// CellError records one sweep cell that failed after its transient
// retries were exhausted. The sweep keeps going past such cells, so a
// campaign ends with a partial result set plus this per-cell error report
// instead of losing the whole matrix.
type CellError struct {
	Name     string
	Size     int
	Attempts int
	Err      error

	key any // the cell's slot in the cell store
}

func (e CellError) String() string {
	return fmt.Sprintf("%s at %d^3 (%d attempt(s)): %v", e.Name, e.Size, e.Attempts, e.Err)
}

// recordFailure keeps one record per cell: a cell that fails again when a
// later artifact asks for it replaces its earlier record in place.
func (c *Config) recordFailure(e CellError) {
	for i := range c.run.failures {
		if c.run.failures[i].key == e.key {
			c.run.failures[i] = e
			return
		}
	}
	c.run.failures = append(c.run.failures, e)
}

// Failures returns the per-configuration failures recorded so far, in
// the order they first occurred.
func (c *Config) Failures() []CellError {
	if c.run == nil {
		return nil
	}
	return append([]CellError(nil), c.run.failures...)
}

// FailureReport renders the failures as the campaign error report; it is
// empty when nothing failed.
func FailureReport(failures []CellError) string {
	if len(failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d configuration(s) failed; results are partial\n", len(failures))
	fmt.Fprintf(&b, "%-22s %-7s %-9s %s\n", "Algorithm", "Size", "Attempts", "Error")
	for _, f := range failures {
		fmt.Fprintf(&b, "%-22s %-7s %-9d %v\n",
			f.Name, fmt.Sprintf("%d^3", f.Size), f.Attempts, f.Err)
	}
	return b.String()
}
