package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func mustAdmit(t *testing.T, a *Admission, class metrics.Class, demand float64) *Grant {
	t.Helper()
	g, _, err := a.Admit(context.Background(), class, demand)
	if err != nil {
		t.Fatalf("Admit(%v, %v): %v", class, demand, err)
	}
	return g
}

// TestAdmissionCharges checks the classification policy: sensitive work
// reserves its demand, opportunity work at most the cap floor, and both
// clamp to the budget.
func TestAdmissionCharges(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 200, FloorWatts: 40})
	if g := mustAdmit(t, a, metrics.PowerSensitive, 120); g.Watts() != 120 {
		t.Errorf("sensitive charge = %v, want 120", g.Watts())
	}
	if g := mustAdmit(t, a, metrics.PowerOpportunity, 120); g.Watts() != 40 {
		t.Errorf("opportunity charge = %v, want floor 40", g.Watts())
	}
	if g := mustAdmit(t, a, metrics.PowerOpportunity, 25); g.Watts() != 25 {
		t.Errorf("small opportunity charge = %v, want 25", g.Watts())
	}
	b := NewAdmission(AdmissionOptions{BudgetWatts: 100, FloorWatts: 40})
	if g := mustAdmit(t, b, metrics.PowerSensitive, 500); g.Watts() != 100 {
		t.Errorf("over-budget sensitive charge = %v, want clamp to 100", g.Watts())
	}
}

// TestAdmissionDisabled checks that a zero budget admits everything.
func TestAdmissionDisabled(t *testing.T) {
	a := NewAdmission(AdmissionOptions{})
	for i := 0; i < 100; i++ {
		g, wait, err := a.Admit(context.Background(), metrics.PowerSensitive, 1e9)
		if err != nil || wait != 0 {
			t.Fatalf("unbudgeted admit %d: wait=%v err=%v", i, wait, err)
		}
		defer g.Release()
	}
}

// TestAdmissionQueueFIFO parks two sensitive requests and checks they
// are granted in arrival order as budget frees.
func TestAdmissionQueueFIFO(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 100, FloorWatts: 40, QueueDepth: 8})
	g0 := mustAdmit(t, a, metrics.PowerSensitive, 100)

	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, wait, err := a.Admit(context.Background(), metrics.PowerSensitive, 100)
			if err != nil {
				t.Errorf("parked %d: %v", i, err)
				return
			}
			if wait <= 0 {
				t.Errorf("parked %d reported no queue wait", i)
			}
			order <- i
			g.Release()
		}(i)
		// Ensure arrival order i=0 then i=1.
		deadline := time.Now().Add(5 * time.Second)
		for a.Stats().Waiting != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never parked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	g0.Release()
	wg.Wait()
	close(order)
	if first := <-order; first != 0 {
		t.Errorf("FIFO violated: request %d granted first", first)
	}
}

// TestAdmissionOpportunityHarvestsHeadroom parks a sensitive request,
// then checks an opportunity request still admits into the floor-sized
// gap without jumping the queue's budget.
func TestAdmissionOpportunityHarvestsHeadroom(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 100, FloorWatts: 30, QueueDepth: 8})
	g0 := mustAdmit(t, a, metrics.PowerSensitive, 60)

	parked := make(chan *Grant, 1)
	go func() {
		g, _, err := a.Admit(context.Background(), metrics.PowerSensitive, 80)
		if err != nil {
			t.Error(err)
		}
		parked <- g
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sensitive request never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// 60 W used, 80 W parked: an opportunity request (charged the 30 W
	// floor) fits the 40 W gap and must not wait.
	g1, wait, err := a.Admit(context.Background(), metrics.PowerOpportunity, 500)
	if err != nil || wait != 0 {
		t.Fatalf("opportunity admit: wait=%v err=%v", wait, err)
	}
	if g1.Watts() != 30 {
		t.Errorf("opportunity charge = %v, want 30", g1.Watts())
	}
	g1.Release()
	g0.Release()
	(<-parked).Release()
}

// TestAdmissionOverloadAndRetryAfter fills the queue and checks the
// typed overload error.
func TestAdmissionOverloadAndRetryAfter(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 50, FloorWatts: 40, QueueDepth: 1})
	g0 := mustAdmit(t, a, metrics.PowerSensitive, 50)
	defer g0.Release()
	go func() {
		g, _, err := a.Admit(context.Background(), metrics.PowerSensitive, 50)
		if err == nil {
			g.Release()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err := a.Admit(context.Background(), metrics.PowerSensitive, 50)
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if !errors.Is(err, ErrOverload) {
		t.Error("OverloadError does not unwrap to ErrOverload")
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", ov.RetryAfter)
	}
	if a.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", a.Stats().Rejected)
	}
}

// TestAdmissionContextCancel parks a request, cancels it, and checks the
// queue forgets it (no leaked reservation, no stuck waiter).
func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 50, QueueDepth: 4})
	g0 := mustAdmit(t, a, metrics.PowerSensitive, 50)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Admit(ctx, metrics.PowerSensitive, 50)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w := a.Stats().Waiting; w != 0 {
		t.Fatalf("waiting = %d after cancel, want 0", w)
	}
	// The budget must be whole again: a full-budget admit succeeds.
	g0.Release()
	g1, wait, err := a.Admit(context.Background(), metrics.PowerSensitive, 50)
	if err != nil || wait != 0 {
		t.Fatalf("post-cancel admit: wait=%v err=%v", wait, err)
	}
	g1.Release()
}

// TestAdmissionAvgWattsBounded holds grants summing to the budget and
// checks the measured average admitted power never exceeds it.
func TestAdmissionAvgWattsBounded(t *testing.T) {
	a := NewAdmission(AdmissionOptions{BudgetWatts: 100, FloorWatts: 40, QueueDepth: 8})
	var grants []*Grant
	for i := 0; i < 4; i++ {
		grants = append(grants, mustAdmit(t, a, metrics.PowerSensitive, 25))
	}
	time.Sleep(20 * time.Millisecond)
	for _, g := range grants {
		g.Release()
	}
	st := a.Stats()
	if st.AvgWatts > st.BudgetWatts+1e-9 {
		t.Errorf("avg watts %v exceeds budget %v", st.AvgWatts, st.BudgetWatts)
	}
	if st.PeakWatts > st.BudgetWatts+1e-9 {
		t.Errorf("peak watts %v exceeds budget %v", st.PeakWatts, st.BudgetWatts)
	}
	if st.AvgWatts <= 0 {
		t.Errorf("avg watts = %v, want > 0", st.AvgWatts)
	}
	if g := mustAdmit(t, a, metrics.PowerSensitive, 100); g != nil {
		g.Release()
	}
}
