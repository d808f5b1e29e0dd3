package serve

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// Peek returns the completed value under key without building, or
// (nil, false) when absent or still in flight.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// Invalidate drops a key (completed or in flight); in-flight builders
// still complete and hand their waiters the result, but later requests
// rebuild.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}
