package harness

import (
	"fmt"
	"time"

	"repro/internal/dist"
)

// Every sweep cell — an (algorithm, size) run, a distributed-advection
// rank count and its single-rank oracle, a governor sweep — goes through
// runCell over the one keyed store, the run state's cells. The kinds
// differ only in what they hand it: a typed key, the names below and a
// build function.

// The retries of a transiently failing cell, and the sleep before the
// first (doubling on each further one).
const (
	maxRetries   = 2
	retryBackoff = 10 * time.Millisecond
)

// cellID names one sweep cell to the cell policy.
type cellID struct {
	key   any    // comparable and typed per kind: the slot in the cell store
	name  string // what Config.Inject is asked about and CellError reports
	size  int
	label string // the heartbeat's "(...)" description
}

// runCell is the cell policy. A cached cell is returned without
// executing. Otherwise each attempt consults Config.Inject and then
// builds; an attempt that fails with a transient error is retried up to
// maxRetries times with doubling backoff. The outcome is
// one heartbeat line, and either the stored result or a CellError in
// Failures and the error, wrapped with the cell's name and size.
func runCell[T any](c *Config, id cellID, build func() (T, error)) (T, error) {
	if v, ok := c.run.cells[id.key]; ok {
		return v.(T), nil
	}
	var (
		v        T
		err      error
		attempts int
		start    time.Time
	)
	for {
		start = time.Now()
		err = nil
		if c.Inject != nil {
			err = c.Inject(id.name, id.size, attempts)
		}
		if err == nil {
			v, err = build()
		}
		attempts++
		if err == nil || attempts > maxRetries || !dist.IsTransient(err) {
			break
		}
		dist.NoteRetry()
		c.log("retry %s at %d^3 after transient failure (attempt %d): %v", id.name, id.size, attempts, err)
		time.Sleep(retryBackoff << (attempts - 1))
	}
	c.run.cellsDone++
	if err != nil {
		err = fmt.Errorf("harness: %s at %d^3: %w", id.name, id.size, err)
		c.recordFailure(CellError{Name: id.name, Size: id.size, Attempts: attempts, Err: err, key: id.key})
	} else {
		c.run.cells[id.key] = v
	}
	if c.Heartbeat != nil {
		outcome := fmt.Sprintf("done in %.2fs", time.Since(start).Seconds())
		if err != nil {
			outcome = fmt.Sprintf("FAILED after %d attempt(s): %v", attempts, err)
		}
		// Span loss should be visible where the progress is, not only in
		// the final trace export.
		if d := c.Tracer.Dropped(); d > 0 {
			outcome += fmt.Sprintf(" [%d spans dropped]", d)
		}
		// The denominator is the study matrix, one cell per (algorithm,
		// size); cells beyond it (the rank sweep, a governor sweep) keep
		// the counter monotone instead of overflowing.
		total := max(len(c.Filters())*len(c.Sizes), c.run.cellsDone)
		fmt.Fprintf(c.Heartbeat, "cell %d/%d (%s) %s\n", c.run.cellsDone, total, id.label, outcome)
	}
	return v, err
}

// cached returns every stored cell result of type T, in no particular
// order: what the report sections render without re-executing anything.
func cached[T any](c *Config) []T {
	var out []T
	for _, v := range c.run.cells {
		if t, ok := v.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// partial runs n steps and keeps what succeeds. A failed step is skipped
// — its cells are already in Failures — so a sweep degrades to a partial
// result set instead of aborting; the error return is non-nil only when
// every step failed.
func partial[T any](n int, step func(i int) (T, error)) ([]T, error) {
	var out []T
	var firstErr error
	for i := 0; i < n; i++ {
		v, err := step(i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, v)
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
