package cinema

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// NextCycle advances the visualization-cycle tag for subsequent images.
// Safe for concurrent use; producers that need to know which cycle they
// own should use NewCycle instead.
func (d *Database) NextCycle() {
	d.mu.Lock()
	d.cycle++
	d.mu.Unlock()
}
