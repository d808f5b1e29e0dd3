package cinema

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/render"
)

func frameImage(i int, w, h int) *render.Image {
	im := render.NewImage(w, h)
	im.Fill(render.Color{float64(i%7) / 7, float64(i%5) / 5, float64(i%3) / 3, 1})
	return im
}

// The pipelined encoder must persist exactly the manifest the synchronous
// path writes: same entries in the same (cycle, index) order, same image
// bytes on disk.
func TestAsyncMatchesSyncDatabase(t *testing.T) {
	syncDir, asyncDir := t.TempDir(), t.TempDir()
	sdb, err := New(syncDir, "orbit", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	adb, err := New(asyncDir, "orbit", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	adb.StartAsync(3, 2)
	for cyc := 0; cyc < 2; cyc++ {
		for i := 0; i < 9; i++ {
			az := float64(i) * 0.7
			if err := sdb.Add(i, az, frameImage(cyc*9+i, 10, 6)); err != nil {
				t.Fatal(err)
			}
			if err := adb.Add(i, az, frameImage(cyc*9+i, 10, 6)); err != nil {
				t.Fatal(err)
			}
		}
		sdb.NextCycle()
		adb.NextCycle()
	}
	if err := sdb.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := adb.Finalize(); err != nil {
		t.Fatal(err)
	}
	sIdx, err := Load(syncDir)
	if err != nil {
		t.Fatal(err)
	}
	aIdx, err := Load(asyncDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sIdx.Entries) != len(aIdx.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(sIdx.Entries), len(aIdx.Entries))
	}
	if sIdx.Width != aIdx.Width || sIdx.Height != aIdx.Height {
		t.Errorf("dimensions differ: %dx%d vs %dx%d", sIdx.Width, sIdx.Height, aIdx.Width, aIdx.Height)
	}
	for i := range sIdx.Entries {
		if sIdx.Entries[i] != aIdx.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, sIdx.Entries[i], aIdx.Entries[i])
		}
		sPix, err := os.ReadFile(filepath.Join(syncDir, sIdx.Entries[i].File))
		if err != nil {
			t.Fatal(err)
		}
		aPix, err := os.ReadFile(filepath.Join(asyncDir, aIdx.Entries[i].File))
		if err != nil {
			t.Fatal(err)
		}
		if string(sPix) != string(aPix) {
			t.Fatalf("image bytes differ for %s", sIdx.Entries[i].File)
		}
	}
}

// The encode queue is exercised from several producers at once (more
// contention than the render loop generates); run under -race via the
// Makefile race target.
func TestAsyncConcurrentProducers(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "orbit", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	db.StartAsync(4, 3)
	var wg sync.WaitGroup
	const producers, each = 4, 10
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				idx := p*each + i
				if err := db.Add(idx, float64(idx), frameImage(idx, 6, 6)); err != nil {
					t.Errorf("Add(%d): %v", idx, err)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != producers*each {
		t.Fatalf("entries = %d, want %d", len(idx.Entries), producers*each)
	}
	for i, e := range idx.Entries {
		if e.Index != i {
			t.Fatalf("entry %d has index %d; manifest not sorted", i, e.Index)
		}
		if _, err := os.Stat(filepath.Join(dir, e.File)); err != nil {
			t.Errorf("missing image %s: %v", e.File, err)
		}
	}
}

// Async write failures must surface at Finalize, like synchronous ones.
func TestAsyncErrorSurfacesAtFinalize(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "x", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	db.StartAsync(2, 2)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Add(i, 0, frameImage(i, 4, 4)); err != nil {
			t.Fatalf("async Add must defer errors, got %v", err)
		}
	}
	if err := db.Finalize(); err == nil {
		t.Error("Finalize hid the failed async writes")
	}
}

// The volren orbit drives the pipelined encode queue end to end.
func TestAsyncOrbitLoopCollects(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "orbit", "Volume Rendering")
	if err != nil {
		t.Fatal(err)
	}
	db.StartAsync(0, 0)
	collectOrbit(t, db, "Volume Rendering", 6)
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	checkOrbit(t, dir, 6)
}
