package par_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/clip"
	"repro/internal/viz/contour"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/slice"
	"repro/internal/viz/threshold"
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
	// finalizer (or Close) stops; clip leases scan scratch and parks it.
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

// A live pool's scratch store holds only state whose size does not scale
// with the data: every kernel's output is written once, at its exact size,
// and nothing data-sized is parked for the next launch. It did not hold:
// each emitter parked its per-worker scratch meshes, advection its trail
// arenas and the weld its tables, at their high-water size, for as long as
// the pool lived — the advection arenas alone ~33 MB at this size.
func TestLivePoolParksNoDataSizedScratch(t *testing.T) {
	g, err := mesh.NewCubeGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	v := g.AddPointVector("velocity")
	for id := range f {
		p := g.PointPosition(id)
		f[id] = p[0]*p[0] + p[1] + 2*p[2]
		v[id] = mesh.Vec3{-(p[1] - 0.5), p[0] - 0.5, 0.1}
	}
	cf := g.AddCellField("energy")
	for c := range cf {
		p := g.CellCenter(c)
		cf[c] = p[0] + p[1]*p[2]
	}
	filters := []viz.Filter{
		contour.New(contour.Options{Field: "energy"}),
		slice.New(slice.Options{Field: "energy"}),
		clip.New(clip.Options{Field: "energy"}),
		isovolume.New(isovolume.Options{Field: "energy"}),
		threshold.New(threshold.Options{Field: "energy"}),
		advect.New(advect.Options{}),
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	pool := par.NewPool(2)
	defer pool.Close()
	pool.For(2, 1, func(int, int, int) {}) // start the workers
	base := heap()
	for _, fl := range filters {
		if _, err := fl.Run(g, viz.NewExec(pool)); err != nil {
			t.Fatalf("%s: %v", fl.Name(), err)
		}
	}
	if got := heap(); got > base+base/10 {
		t.Errorf("live heap with the pool alive after the kernels: %.1f MB, baseline %.1f MB: the pool parks data-sized scratch", float64(got)/1e6, float64(base)/1e6)
	}
	runtime.KeepAlive(pool)
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
