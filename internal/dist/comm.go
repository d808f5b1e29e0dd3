// Package dist is a small distributed-memory layer for the multi-node
// experiments: an in-process message fabric with MPI-like point-to-point
// and collective operations connecting simulated ranks, and the classic
// sort-last compositing algorithms of parallel visualization built on it
// — depth compositing for surface rendering and ordered alpha compositing
// for volume rendering. Each rank owns one z-slab of the data set (the
// decomposition mesh.SlabDecompose produces), renders only its own
// geometry, and the composite reconstructs the single-node image; the
// paper's Section III-A node-imbalance arguments are exercised on real
// per-rank workloads.
//
// The fabric is cancellable: the first rank error (or an external
// Comm.Cancel) closes a shared signal, and every Send, Recv, Barrier, and
// Gather blocked anywhere on the fabric unblocks with a typed *AbortError
// naming the originating rank — a failing rank can never strand its peers
// in a deadlock. See DESIGN.md ("The rank fabric and its fault model").
package dist

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// message is one typed payload on the fabric.
type message struct {
	tag  int
	data []float64
}

// ErrAborted is the sentinel matched by errors.Is for every operation
// that unblocked because the run was cancelled. The concrete error is
// always an *AbortError carrying the originating rank and cause.
var ErrAborted = errors.New("dist: run aborted")

// ErrStalled is wrapped by Send when Options.SendTimeout elapses with the
// (src, dst) pair buffer still full — the deadline-aware alternative to
// blocking forever against a wedged receiver.
var ErrStalled = errors.New("dist: send stalled")

// ExternalRank is the AbortError.Rank value for aborts that did not
// originate on a rank (Comm.Cancel).
const ExternalRank = -1

// AbortError reports that the run was cancelled: by the first rank to
// return an error, by a rank panic, or by Comm.Cancel. It satisfies
// errors.Is(err, ErrAborted) and unwraps to the cause.
type AbortError struct {
	// Rank is the originating rank, or ExternalRank for Comm.Cancel.
	Rank int
	// Err is the first error that triggered the abort.
	Err error
}

func (e *AbortError) Error() string {
	if e.Rank == ExternalRank {
		return fmt.Sprintf("dist: run aborted (external cancel): %v", e.Err)
	}
	return fmt.Sprintf("dist: run aborted by rank %d: %v", e.Rank, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }

// Is makes every AbortError match the ErrAborted sentinel.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// TransientError marks its cause as retryable: a fault the caller may
// reasonably hope disappears on a re-run (the harness retries such cells
// with backoff before recording a failure).
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return "dist: transient: " + e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether any error in err's chain is a
// *TransientError.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// DefaultBufferCap is the per-(src, dst) channel capacity when
// Options.BufferCap is zero.
const DefaultBufferCap = 16

// Options tunes a fabric. The zero value reproduces the defaults.
type Options struct {
	// BufferCap is the per-(src, dst) pair buffer capacity in messages.
	// Zero means DefaultBufferCap; negative means an unbuffered
	// (rendezvous) channel.
	BufferCap int
	// SendTimeout, when positive, bounds how long a Send may block on a
	// full pair buffer before failing with an error wrapping ErrStalled.
	// Zero sends block until delivery or abort.
	SendTimeout time.Duration
	// Fault injects deterministic faults for tests; nil is a clean fabric.
	Fault *FaultPlan
	// Tracer, when non-nil, records one span per rank operation —
	// "dist.send", "dist.recv", "dist.gather" — on rank r's track
	// (Tracer.Rank(r)), so a composite stalled on a slow or wedged peer
	// is visible as a long span on the blocked rank.
	Tracer *obs.Tracer
}

// Comm is an in-process fabric connecting Size ranks. Each (src, dst)
// pair has a buffered ordered channel, so sends match receives in program
// order like MPI's non-overtaking rule.
type Comm struct {
	size  int
	opts  Options
	chans [][]chan message

	// done is closed exactly once by the first abort; abortErr is written
	// before the close, so any reader that observed the close may read it.
	done      chan struct{}
	abortOnce sync.Once
	abortErr  *AbortError

	// Fault-injection counters: sends issued per rank, and the message
	// sequence per (src, dst) pair.
	sendOps []atomic.Int64
	pairSeq []atomic.Int64
}

// NewCommWith creates a fabric for n ranks with explicit options.
func NewCommWith(n int, opts Options) (*Comm, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: need at least one rank, got %d", n)
	}
	capacity := opts.BufferCap
	if capacity == 0 {
		capacity = DefaultBufferCap
	} else if capacity < 0 {
		capacity = 0
	}
	c := &Comm{
		size:    n,
		opts:    opts,
		chans:   make([][]chan message, n),
		done:    make(chan struct{}),
		sendOps: make([]atomic.Int64, n),
		pairSeq: make([]atomic.Int64, n*n),
	}
	for s := 0; s < n; s++ {
		c.chans[s] = make([]chan message, n)
		for d := 0; d < n; d++ {
			c.chans[s][d] = make(chan message, capacity)
		}
	}
	return c, nil
}

// abort records the first cause and releases every blocked operation.
func (c *Comm) abort(rank int, err error) {
	c.abortOnce.Do(func() {
		c.abortErr = &AbortError{Rank: rank, Err: err}
		fabricAborts.Add(1)
		close(c.done)
	})
}

// Cancel aborts the run from outside the rank bodies: every blocked
// operation unblocks with an *AbortError whose Rank is ExternalRank.
// Cancelling an already-aborted fabric is a no-op.
func (c *Comm) Cancel(cause error) {
	if cause == nil {
		cause = errors.New("cancelled")
	}
	c.abort(ExternalRank, cause)
}

// Err returns the *AbortError once the fabric is cancelled, nil before.
func (c *Comm) Err() error {
	select {
	case <-c.done:
		return c.abortErr
	default:
		return nil
	}
}

// Run launches body once per rank on its own goroutine and waits for all
// of them. The first rank to return an error (or panic) cancels the
// fabric — peers blocked in Send/Recv/Barrier/Gather unblock with an
// *AbortError — and Run returns that typed error naming the rank.
func (c *Comm) Run(body func(ep *Endpoint) error) error {
	var wg sync.WaitGroup
	wg.Add(c.size)
	for r := 0; r < c.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					c.abort(rank, fmt.Errorf("panic: %v\n%s", p, debug.Stack()))
				}
			}()
			if err := body(&Endpoint{rank: rank, comm: c}); err != nil {
				c.abort(rank, err)
			}
		}(r)
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		return err
	}
	return nil
}

// Endpoint is one rank's handle on the fabric.
type Endpoint struct {
	rank int
	comm *Comm
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the fabric size.
func (e *Endpoint) Size() int { return e.comm.size }

// Send delivers a copy of data to dst with a tag. It blocks while the
// (src, dst) pair buffer is full and fails instead of deadlocking: with
// an *AbortError once the run is cancelled, or with an error wrapping
// ErrStalled when Options.SendTimeout elapses first. On a traced
// fabric (Options.Tracer) the operation records a span on this rank's
// track, as do Recv, Barrier, and Gather.
func (e *Endpoint) Send(dst, tag int, data []float64) error {
	tr := e.comm.opts.Tracer
	start := tr.Begin()
	err := e.send(dst, tag, data)
	tr.End(tr.Rank(e.rank), "dist.send", start)
	return err
}

func (e *Endpoint) send(dst, tag int, data []float64) error {
	c := e.comm
	if f := c.opts.Fault; f != nil {
		op := int(c.sendOps[e.rank].Add(1) - 1)
		seq := int(c.pairSeq[e.rank*c.size+dst].Add(1) - 1)
		drop, err := f.sendFault(e.rank, dst, tag, op, seq, c)
		if err != nil || drop {
			return err
		}
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	var timeout <-chan time.Time
	if c.opts.SendTimeout > 0 {
		t := time.NewTimer(c.opts.SendTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case c.chans[e.rank][dst] <- message{tag: tag, data: cp}:
		fabricSends.Add(1)
		fabricBytes.Add(int64(8 * len(cp)))
		return nil
	case <-c.done:
		return c.abortErr
	case <-timeout:
		fabricStalls.Add(1)
		return fmt.Errorf("dist: rank %d send to %d (tag %d) blocked > %v on a full buffer: %w",
			e.rank, dst, tag, c.opts.SendTimeout, ErrStalled)
	}
}

// Recv blocks for the next message from src and checks its tag. Once the
// run is cancelled it unblocks with the *AbortError instead of waiting on
// a sender that will never come.
func (e *Endpoint) Recv(src, tag int) ([]float64, error) {
	tr := e.comm.opts.Tracer
	start := tr.Begin()
	data, err := e.recv(src, tag)
	tr.End(tr.Rank(e.rank), "dist.recv", start)
	return data, err
}

func (e *Endpoint) recv(src, tag int) ([]float64, error) {
	c := e.comm
	select {
	case m := <-c.chans[src][e.rank]:
		if m.tag != tag {
			return nil, fmt.Errorf("dist: rank %d expected tag %d from %d, got %d", e.rank, tag, src, m.tag)
		}
		fabricRecvs.Add(1)
		return m.data, nil
	case <-c.done:
		return nil, c.abortErr
	}
}

// Gather collects each rank's slice on root (in rank order). Non-root
// ranks return (nil, nil) only on success; a failed contribution returns
// the send error. The root returns either the complete gather or
// (nil, err) — never a partial [][]float64 with nil holes — and a peer's
// abort propagates as the typed *AbortError.
func (e *Endpoint) Gather(root, tag int, data []float64) ([][]float64, error) {
	tr := e.comm.opts.Tracer
	start := tr.Begin()
	out, err := e.gather(root, tag, data)
	tr.End(tr.Rank(e.rank), "dist.gather", start)
	return out, err
}

func (e *Endpoint) gather(root, tag int, data []float64) ([][]float64, error) {
	if e.rank != root {
		if err := e.Send(root, tag, data); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]float64, e.comm.size)
	for r := 0; r < e.comm.size; r++ {
		if r == root {
			cp := make([]float64, len(data))
			copy(cp, data)
			out[r] = cp
			continue
		}
		d, err := e.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = d
	}
	return out, nil
}
