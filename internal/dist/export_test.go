package dist

import "repro/internal/telemetry"

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
	tr.End(telemetry.WorkerTrack(e.rank), "dist.barrier", start)
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
