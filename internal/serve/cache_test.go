package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight races many goroutines on one key and requires
// exactly one build.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var builds atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const n = 64
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, _, err := c.GetOrBuild("k", func() (any, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Waits != n-1 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestCacheErrorEvicts ensures a failed build does not poison the key.
func TestCacheErrorEvicts(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("failed build left a cached entry")
	}
	v, hit, err := c.GetOrBuild("k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after failure: v=%v hit=%v err=%v", v, hit, err)
	}
}

// A build that panics fails its flight like one that errs: the builder
// and a waiter parked on the same flight both get an error naming the
// panic, the entry is evicted, and the next call builds afresh.
func TestCachePanicFailsTheFlight(t *testing.T) {
	c := NewCache()
	building := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		<-building
		_, _, err := c.GetOrBuild("k", func() (any, error) {
			t.Error("a waiter ran a second build")
			return nil, nil
		})
		waited <- err
	}()
	_, _, err := c.GetOrBuild("k", func() (any, error) {
		close(building)
		for c.Stats().Waits == 0 {
			time.Sleep(time.Millisecond)
		}
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("builder got %v, want the panic as an error", err)
	}
	if err := <-waited; err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("waiter got %v, want the panic as an error", err)
	}
	v, hit, err := c.GetOrBuild("k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("call after the panic: v=%v hit=%v err=%v, want a fresh build", v, hit, err)
	}
}

// TestCachePeekInvalidate covers the auxiliary operations.
func TestCachePeekInvalidate(t *testing.T) {
	c := NewCache()
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek on empty cache")
	}
	if _, _, err := c.GetOrBuild("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("k"); !ok || v != 1 {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	c.Invalidate("k")
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek after Invalidate")
	}
	if _, hit, _ := c.GetOrBuild("k", func() (any, error) { return 2, nil }); hit {
		t.Fatal("rebuild after Invalidate reported a hit")
	}
}
