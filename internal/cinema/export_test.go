package cinema

import (
	"encoding/json"
	"os"
	"path/filepath"
)

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

// Load reads a database manifest back (no viewer ships here, so only the tests read one).
func Load(dir string) (*Index, error) {
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, err
	}
	var idx Index
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, err
	}
	return &idx, nil
}
