package harness

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// ClearFailures resets the failure record, e.g. between campaigns on a
// reused Config.
func (c *Config) ClearFailures() { c.run.failures = nil }
