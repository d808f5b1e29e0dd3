package dist

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/render"
)

// guarded runs fn on its own goroutine and fails the test if it has not
// returned within limit (or the test deadline, whichever is sooner): a
// reintroduced fabric deadlock fails fast instead of wedging the run.
func guarded(t *testing.T, limit time.Duration, fn func() error) error {
	t.Helper()
	if dl, ok := t.Deadline(); ok {
		if until := time.Until(dl) - time.Second; until < limit {
			limit = until
		}
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("fabric operation still blocked after %v (deadlock regression)", limit)
		return nil
	}
}

// wantAbortFrom asserts err is the typed abort naming the given rank.
func wantAbortFrom(t *testing.T, err error, rank int) *AbortError {
	t.Helper()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("errors.Is(err, ErrAborted) = false for %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *AbortError: %v", err)
	}
	if ae.Rank != rank {
		t.Fatalf("abort originated at rank %d, want %d: %v", ae.Rank, rank, err)
	}
	return ae
}

// TestGatherAbortsPeersOnRankError is the Comm.Run error-path regression:
// a rank that returns an error before contributing to a 4-rank Gather
// used to leave the root blocked in Recv forever. Now every peer
// unblocks and the returned error names the originating rank.
func TestGatherAbortsPeersOnRankError(t *testing.T) {
	comm, err := NewComm(4)
	if err != nil {
		t.Fatal(err)
	}
	var unblocked atomic.Int32
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			if ep.Rank() == 2 {
				return errors.New("simulated rank crash")
			}
			_, err := ep.Gather(0, 1, []float64{float64(ep.Rank())})
			unblocked.Add(1)
			return err
		})
	})
	wantAbortFrom(t, runErr, 2)
	if !strings.Contains(runErr.Error(), "rank 2") {
		t.Errorf("error does not name the failing rank: %v", runErr)
	}
	if got := unblocked.Load(); got != 3 {
		t.Errorf("%d of 3 surviving ranks returned from Gather", got)
	}
	if comm.Err() == nil {
		t.Error("Comm.Err() nil after abort")
	}
}

// TestSendUnblocksWhenPeerFails: a (src, dst) pair buffer that fills used
// to block Send permanently; the abort signal must release it.
func TestSendUnblocksWhenPeerFails(t *testing.T) {
	comm, err := NewCommWith(2, Options{BufferCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			if ep.Rank() == 1 {
				return errors.New("receiver died")
			}
			for i := 0; i < 64; i++ {
				if err := ep.Send(1, 0, []float64{float64(i)}); err != nil {
					sendErr = err
					return err
				}
			}
			t.Error("64 sends into a dead 2-slot buffer all succeeded")
			return nil
		})
	})
	wantAbortFrom(t, runErr, 1)
	if !errors.Is(sendErr, ErrAborted) {
		t.Errorf("blocked Send returned %v, want ErrAborted", sendErr)
	}
}

// TestSendDeadline: with SendTimeout set, a send against a wedged
// receiver fails with ErrStalled instead of blocking forever, and the
// stall aborts the run.
func TestSendDeadline(t *testing.T) {
	comm, err := NewCommWith(3, Options{BufferCap: 1, SendTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			switch ep.Rank() {
			case 0:
				// The second send overflows the 1-slot buffer and must
				// stall out rather than deadlock.
				for i := 0; i < 2; i++ {
					if err := ep.Send(1, 7, nil); err != nil {
						return err
					}
				}
				return nil
			case 1:
				// Wedged: waiting on rank 2, which never sends.
				_, err := ep.Recv(2, 9)
				return err
			default:
				<-ep.comm.Done()
				return nil
			}
		})
	})
	wantAbortFrom(t, runErr, 0)
	if !errors.Is(runErr, ErrStalled) {
		t.Errorf("stalled send not surfaced: %v", runErr)
	}
}

// TestExternalCancel: Comm.Cancel releases ranks deadlocked on each
// other and reports ExternalRank.
func TestExternalCancel(t *testing.T) {
	comm, err := NewComm(2)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator interrupt")
	time.AfterFunc(20*time.Millisecond, func() { comm.Cancel(cause) })
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			// Every rank waits on the other: a certain deadlock without
			// the external cancel.
			_, err := ep.Recv(1-ep.Rank(), 0)
			return err
		})
	})
	ae := wantAbortFrom(t, runErr, ExternalRank)
	if !errors.Is(ae, cause) && !errors.Is(runErr, cause) {
		t.Errorf("cancel cause lost: %v", runErr)
	}
}

// TestDropKeepsNonOvertaking: a dropped message does not reorder the
// stream — the receiver sees the next message in program order (here a
// tag mismatch, which aborts the run cleanly).
func TestDropKeepsNonOvertaking(t *testing.T) {
	fault := &FaultPlan{
		Drop: func(src, dst, tag, seq int) bool { return src == 0 && dst == 1 && seq == 0 },
	}
	comm, err := NewCommWith(2, Options{Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			if ep.Rank() == 0 {
				if err := ep.Send(1, 1, []float64{1}); err != nil { // dropped
					return err
				}
				return ep.Send(1, 2, []float64{2})
			}
			_, err := ep.Recv(0, 1) // arrives as tag 2: the drop is visible, not reordered
			return err
		})
	})
	wantAbortFrom(t, runErr, 1)
	if !strings.Contains(runErr.Error(), "expected tag 1") {
		t.Errorf("drop did not surface as the next-in-order message: %v", runErr)
	}
}

// identicalImages reports whether two images match bit for bit.
func identicalImages(a, b *render.Image) bool {
	if len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] || a.Depth[i] != b.Depth[i] {
			return false
		}
	}
	return true
}

// jitter is the deterministic per-message delay used by the straggler
// tests: a hash of (src, dst, tag, seq) spread over 0–200µs, so the
// schedule is adversarial but reproducible.
func jitter(src, dst, tag, seq int) time.Duration {
	h := uint64(src)*2654435761 ^ uint64(dst)<<20 ^ uint64(tag)<<40 ^ uint64(seq)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return time.Duration(h%200) * time.Microsecond
}

// TestRayTraceUnderMessageDelays: random (deterministic) per-message
// delays on an 8-rank sort-last composite must not change a single bit
// of the image — compositing order is by rank, not arrival.
func TestRayTraceUnderMessageDelays(t *testing.T) {
	g := energyGrid(t)
	pool := par.NewPool(2)
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.4, 2.0)
	const w, h, ranks = 32, 32, 8

	var clean, delayed *render.Image
	err := guarded(t, 60*time.Second, func() error {
		var err error
		clean, _, err = RayTraceWith(energyGrid(t), "energy", ranks, cam, w, h, pool, Options{})
		if err != nil {
			return err
		}
		delayed, _, err = RayTraceWith(energyGrid(t), "energy", ranks, cam, w, h, pool,
			Options{Fault: &FaultPlan{Delay: jitter}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalImages(clean, delayed) {
		t.Error("message delays changed the ray-traced composite")
	}
}

// TestVolumeRenderUnderMessageDelays mirrors the ray-tracing check for
// ordered alpha compositing, and adds the failure path: an injected
// rank fault must surface as a clean transient ErrAborted, never a hang.
func TestVolumeRenderUnderMessageDelays(t *testing.T) {
	g := energyGrid(t)
	pool := par.NewPool(2)
	cam := render.OrbitCamera(g.Bounds(), 0.9, 0.35, 2.0)
	const w, h, ranks = 32, 32, 8

	var clean, delayed *render.Image
	err := guarded(t, 60*time.Second, func() error {
		var err error
		clean, _, err = VolumeRenderWith(energyGrid(t), "energy", ranks, cam, w, h, pool, Options{})
		if err != nil {
			return err
		}
		delayed, _, err = VolumeRenderWith(energyGrid(t), "energy", ranks, cam, w, h, pool,
			Options{Fault: &FaultPlan{Delay: jitter}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalImages(clean, delayed) {
		t.Error("message delays changed the volume-rendered composite")
	}

	// Failure path: rank 5's first fabric send fails (transiently).
	fault := &FaultPlan{Fail: &FailSpec{Rank: 5, Op: 0, Transient: true}, Delay: jitter}
	var im *render.Image
	ferr := guarded(t, 60*time.Second, func() error {
		var err error
		im, _, err = VolumeRenderWith(energyGrid(t), "energy", ranks, cam, w, h, pool, Options{Fault: fault})
		return err
	})
	wantAbortFrom(t, ferr, 5)
	if !errors.Is(ferr, ErrInjected) {
		t.Errorf("injected cause lost: %v", ferr)
	}
	if !IsTransient(ferr) {
		t.Errorf("transient marking lost: %v", ferr)
	}
	if im != nil {
		t.Error("aborted composite still returned an image")
	}
}

// TestRunRecoversRankPanic: a panicking rank aborts the run instead of
// crashing the process or deadlocking its peers.
func TestRunRecoversRankPanic(t *testing.T) {
	comm, err := NewComm(3)
	if err != nil {
		t.Fatal(err)
	}
	runErr := guarded(t, 10*time.Second, func() error {
		return comm.Run(func(ep *Endpoint) error {
			if ep.Rank() == 1 {
				panic("rank blew up")
			}
			return ep.Barrier(3)
		})
	})
	wantAbortFrom(t, runErr, 1)
	if !strings.Contains(runErr.Error(), "rank blew up") {
		t.Errorf("panic message lost: %v", runErr)
	}
}
