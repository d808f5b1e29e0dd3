package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrOverload is the sentinel wrapped by OverloadError: the admission
// queue is full and the request was refused rather than parked. The
// HTTP layer turns it into 429 + Retry-After so clients back off
// instead of thrashing the node.
var ErrOverload = errors.New("serve: power budget exhausted and admission queue full")

// OverloadError carries the backoff hint alongside ErrOverload.
type OverloadError struct {
	// RetryAfter is the server's estimate of when budget headroom will
	// reappear, derived from the queue depth and the average grant hold
	// time.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", ErrOverload, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrOverload) work.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// AdmissionOptions configures the power-budgeted admission queue.
type AdmissionOptions struct {
	// BudgetWatts is the node power budget admitted work may demand
	// concurrently. <= 0 disables budgeting (everything admits).
	BudgetWatts float64
	// FloorWatts is the deepest enforceable cap (cpu.Spec.MinCapWatts).
	// Power-opportunity requests are charged at most this much: the
	// paper's classification says capping them to the floor costs almost
	// no time, so that is all the budget they need to reserve.
	FloorWatts float64
	// QueueDepth bounds how many requests may wait for headroom before
	// further arrivals are refused with OverloadError. Default 64.
	QueueDepth int
}

// waiter is one parked request.
type waiter struct {
	charge  float64
	ready   chan struct{}
	granted bool
}

// Admission is the bounded, power-budgeted admission queue in front of
// the render pool. It implements the paper's classification as an
// operational policy: a request is charged the power its algorithm
// demands — but a power-opportunity (memory-bound) request is charged
// only the cap floor, because running it throttled costs little time,
// while a power-sensitive (compute-bound) request must reserve its full
// demand. Sensitive requests that do not fit the remaining budget park
// in a bounded FIFO; opportunity requests harvest whatever headroom the
// queue leaves (they never queue-jump budget from parked sensitive
// work — they fit in the gaps the floor charge leaves). When the queue
// is full the request is refused with OverloadError.
type Admission struct {
	opts AdmissionOptions

	mu      sync.Mutex
	used    float64
	waiters []*waiter

	// Power accounting: the time integral of admitted (charged) watts,
	// maintained at every change of used, gives the measured average
	// admitted power — the number the budget must bound.
	epoch      time.Time
	lastChange time.Time
	wattSec    float64
	peakWatts  float64

	admitted int64
	queued   int64
	rejected int64
	// holdEWMA tracks the average grant hold time for Retry-After.
	holdEWMA time.Duration
}

// NewAdmission returns an admission queue over opts.
func NewAdmission(opts AdmissionOptions) *Admission {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	now := time.Now()
	return &Admission{opts: opts, epoch: now, lastChange: now}
}

// Grant is an admitted request's budget reservation; Release returns it.
type Grant struct {
	a      *Admission
	charge float64
	t0     time.Time
	once   sync.Once
}

// Watts returns the power this grant reserves against the budget.
func (g *Grant) Watts() float64 { return g.charge }

// Release returns the reservation and wakes queued requests that now
// fit. Idempotent.
func (g *Grant) Release() {
	g.once.Do(func() {
		a := g.a
		a.mu.Lock()
		a.integrateLocked()
		a.used -= g.charge
		hold := time.Since(g.t0)
		if a.holdEWMA == 0 {
			a.holdEWMA = hold
		} else {
			a.holdEWMA = (a.holdEWMA*7 + hold) / 8
		}
		a.grantWaitersLocked()
		a.mu.Unlock()
	})
}

// integrateLocked advances the admitted-watt-seconds integral to now.
func (a *Admission) integrateLocked() {
	now := time.Now()
	a.wattSec += a.used * now.Sub(a.lastChange).Seconds()
	a.lastChange = now
}

// chargeFor maps (class, demand) to the budget charge under the paper's
// policy: sensitive work reserves its demand, opportunity work at most
// the cap floor. Charges are clamped to the budget so a request whose
// demand exceeds the whole budget is admittable alone rather than
// unserviceable.
func (a *Admission) chargeFor(class core.Class, demandWatts float64) float64 {
	charge := demandWatts
	if class == core.PowerOpportunity && a.opts.FloorWatts > 0 && charge > a.opts.FloorWatts {
		charge = a.opts.FloorWatts
	}
	if b := a.opts.BudgetWatts; b > 0 && charge > b {
		charge = b
	}
	if charge < 0 {
		charge = 0
	}
	return charge
}

// grantWaitersLocked admits parked requests from the head of the FIFO
// while they fit the remaining budget.
func (a *Admission) grantWaitersLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.used+w.charge > a.opts.BudgetWatts+1e-9 {
			return
		}
		a.integrateLocked()
		a.used += w.charge
		if a.used > a.peakWatts {
			a.peakWatts = a.used
		}
		w.granted = true
		a.admitted++
		a.waiters = a.waiters[1:]
		close(w.ready)
	}
}

// Admit reserves budget for a request of the given class and modeled
// demand power. It returns immediately when the request fits (or when
// budgeting is disabled), parks in the bounded FIFO when it does not
// (queueWait reports how long), and fails with *OverloadError when the
// queue is full or ctx.Err() when the caller gives up while parked.
func (a *Admission) Admit(ctx context.Context, class core.Class, demandWatts float64) (g *Grant, queueWait time.Duration, err error) {
	if a.opts.BudgetWatts <= 0 {
		a.mu.Lock()
		a.admitted++
		a.mu.Unlock()
		return &Grant{a: a, charge: 0, t0: time.Now()}, 0, nil
	}
	charge := a.chargeFor(class, demandWatts)
	a.mu.Lock()
	fits := a.used+charge <= a.opts.BudgetWatts+1e-9
	// Sensitive requests honor the FIFO: they may not overtake parked
	// work. Opportunity requests only reserve the floor — they are
	// admitted whenever that fits, which is the paper's point: memory-
	// bound work runs fine under the deep cap the leftover budget implies.
	if fits && (len(a.waiters) == 0 || class == core.PowerOpportunity) {
		a.integrateLocked()
		a.used += charge
		if a.used > a.peakWatts {
			a.peakWatts = a.used
		}
		a.admitted++
		a.mu.Unlock()
		return &Grant{a: a, charge: charge, t0: time.Now()}, 0, nil
	}
	if len(a.waiters) >= a.opts.QueueDepth {
		a.rejected++
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		return nil, 0, &OverloadError{RetryAfter: retry}
	}
	w := &waiter{charge: charge, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.queued++
	a.mu.Unlock()

	t0 := time.Now()
	select {
	case <-w.ready:
		return &Grant{a: a, charge: charge, t0: time.Now()}, time.Since(t0), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed while we were leaving.
			// Hand it straight back.
			a.integrateLocked()
			a.used -= charge
			a.grantWaitersLocked()
		} else {
			for i, x := range a.waiters {
				if x == w {
					a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
					break
				}
			}
		}
		a.mu.Unlock()
		return nil, time.Since(t0), ctx.Err()
	}
}

// retryAfterLocked estimates when headroom will reappear: the queue
// ahead of a refused request drains roughly one grant-hold at a time.
func (a *Admission) retryAfterLocked() time.Duration {
	hold := a.holdEWMA
	if hold <= 0 {
		hold = 100 * time.Millisecond
	}
	d := time.Duration(len(a.waiters)+1) * hold
	if d < time.Second {
		d = time.Second
	}
	return d
}

// AdmissionStats is a Stats snapshot.
type AdmissionStats struct {
	BudgetWatts  float64
	CurrentWatts float64
	PeakWatts    float64
	// AvgWatts is the time-averaged admitted (charged) power since the
	// queue was created — the measurement the budget must bound.
	AvgWatts float64
	Admitted int64
	Queued   int64
	Rejected int64
	Waiting  int
}

// Stats returns a snapshot of the admission counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.integrateLocked()
	s := AdmissionStats{
		BudgetWatts:  a.opts.BudgetWatts,
		CurrentWatts: a.used,
		PeakWatts:    a.peakWatts,
		Admitted:     a.admitted,
		Queued:       a.queued,
		Rejected:     a.rejected,
		Waiting:      len(a.waiters),
	}
	if el := a.lastChange.Sub(a.epoch).Seconds(); el > 0 {
		s.AvgWatts = a.wattSec / el
	}
	return s
}
