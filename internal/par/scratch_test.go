package par_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/clip"
)

// A pool's scratch store and workers must go when the pool does, closed or
// merely dropped. They did not: a collector parked in the store pointed
// back at its pool, a cycle through an object with a finalizer, which Go
// never collects — every temporary pool leaked its workers and the scratch
// of the largest kernel it ever ran — and Close left the store in place.
func TestPoolScratchIsCollectable(t *testing.T) {
	g, err := mesh.NewCubeGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := range f {
		p := g.PointPosition(id)
		f[id] = p[0] + p[1] + p[2]
	}
	// Two workers, so that the first loop starts goroutines only the
	// finalizer (or Close) stops; clip leases collector, weld and scan
	// scratch and parks megabytes of it.
	round := func(closeIt bool) {
		pool := par.NewPool(2)
		if _, err := clip.New(clip.Options{Field: "energy"}).Run(g, viz.NewExec(pool)); err != nil {
			t.Fatal(err)
		}
		if closeIt {
			pool.Close()
		}
	}
	heap := func() uint64 {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	round(true) // whatever the first run allocates for good is baseline
	baseHeap, baseGoroutines := heap(), runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		round(i%2 == 0)
	}
	// Finalizers run, and workers exit, on goroutines of their own: collect
	// until both have happened.
	var gotHeap uint64
	var gotGoroutines int
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		gotHeap, gotGoroutines = heap(), runtime.NumGoroutine()
		if (gotHeap <= baseHeap+baseHeap/10 && gotGoroutines <= baseGoroutines) || time.Now().After(deadline) {
			break
		}
	}
	if gotHeap > baseHeap+baseHeap/10 {
		t.Errorf("live heap after 8 dropped pools: %.1f MB, baseline %.1f MB: scratch is retained", float64(gotHeap)/1e6, float64(baseHeap)/1e6)
	}
	if gotGoroutines > baseGoroutines {
		t.Errorf("%d goroutines after 8 dropped pools, baseline %d: the unclosed pools' finalizers have not stopped their workers", gotGoroutines, baseGoroutines)
	}
}

func TestPutScratchAfterCloseIsDropped(t *testing.T) {
	type key struct{}
	p := par.NewPool(1)
	p.PutScratch(key{}, new(int))
	p.Close()
	if v := p.GetScratch(key{}); v != nil {
		t.Errorf("GetScratch after Close = %v, want nil: Close empties the store", v)
	}
	p.PutScratch(key{}, new(int))
	if v := p.GetScratch(key{}); v != nil {
		t.Errorf("a value parked after Close came back (%v): the store was resurrected", v)
	}
}
