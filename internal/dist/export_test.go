package dist

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree. (The
// distributed algorithms synchronize through their data exchanges and
// the Gather collective; none needs a bare barrier.)

// Barrier synchronizes all ranks (a root-coordinated two-phase barrier).
// A cancelled run releases every waiting rank with the *AbortError.
func (e *Endpoint) Barrier(tag int) error {
	tr := e.comm.opts.Tracer
	start := tr.Begin()
	err := e.barrier(tag)
	tr.End(tr.Rank(e.rank), "dist.barrier", start)
	return err
}

func (e *Endpoint) barrier(tag int) error {
	const root = 0
	if e.rank == root {
		for r := 1; r < e.comm.size; r++ {
			if _, err := e.Recv(r, tag); err != nil {
				return err
			}
		}
		for r := 1; r < e.comm.size; r++ {
			if err := e.Send(r, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.Send(root, tag, nil); err != nil {
		return err
	}
	_, err := e.Recv(root, tag)
	return err
}

// NewComm creates a fabric for n ranks with default options.
func NewComm(n int) (*Comm, error) { return NewCommWith(n, Options{}) }

// Size returns the rank count.
func (c *Comm) Size() int { return c.size }

// Done is closed when the run aborts; rank bodies with long local phases
// can poll it to stop early.
func (c *Comm) Done() <-chan struct{} { return c.done }
