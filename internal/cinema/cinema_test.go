package cinema

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

func TestDatabaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "test-db", "Volume Rendering")
	if err != nil {
		t.Fatal(err)
	}
	im := render.NewImage(8, 8)
	im.Fill(render.Color{0.5, 0.2, 0.1, 1})
	if err := db.Add(0, 0, im); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(1, math.Pi, im); err != nil {
		t.Fatal(err)
	}
	db.NextCycle()
	if err := db.Add(0, 0.5, im); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name != "test-db" || idx.Algorithm != "Volume Rendering" {
		t.Errorf("manifest = %+v", idx)
	}
	if len(idx.Entries) != 3 {
		t.Fatalf("entries = %d", len(idx.Entries))
	}
	if idx.Entries[2].Cycle != 1 {
		t.Errorf("third entry cycle = %d, want 1", idx.Entries[2].Cycle)
	}
	if idx.Width != 8 || idx.Height != 8 {
		t.Errorf("dimensions = %dx%d", idx.Width, idx.Height)
	}
	for _, e := range idx.Entries {
		if _, err := os.Stat(filepath.Join(dir, e.File)); err != nil {
			t.Errorf("missing image %s: %v", e.File, err)
		}
	}
}

func testGrid(t testing.TB) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = p[0] + p[1] + p[2]
	}
	return g
}

// collectOrbit runs the loop the cinema verb runs: harness.Frames prepares
// the workload, render.OrbitView places each camera, and every frame goes
// to db.Add in a fresh image (an async database owns it until written).
func collectOrbit(t *testing.T, db *Database, name string, images int) {
	t.Helper()
	g := testGrid(t)
	ex := viz.NewExec(par.NewPool(2))
	frame, err := harness.Frames(g, name, 0, ex)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < images; i++ {
		cam, az := render.OrbitView(g.Bounds(), i, images)
		if err := db.Add(i, az, frame(nil, cam, 12, 12, ex)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkOrbit asserts a finalized orbit database: the frame count, azimuths
// ascending within the cycle, every frame on disk under its canonical name,
// and no two frames byte-equal (a reused framebuffer would alias them).
func checkOrbit(t *testing.T, dir string, images int) {
	t.Helper()
	idx, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != images {
		t.Fatalf("entries = %d, want %d", len(idx.Entries), images)
	}
	seen := map[string]string{}
	for i, e := range idx.Entries {
		if i > 0 && e.AzimuthRad <= idx.Entries[i-1].AzimuthRad {
			t.Errorf("azimuths not ascending: %v", idx.Entries)
		}
		if e.File != FrameName(0, i) {
			t.Errorf("entry %d is %s, want %s", i, e.File, FrameName(0, i))
		}
		pix, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatalf("missing frame %d: %v", i, err)
		}
		if prev, dup := seen[string(pix)]; dup {
			t.Errorf("%s and %s are the same image", prev, e.File)
		}
		seen[string(pix)] = e.File
	}
}

func TestOrbitLoopCollectsVolren(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "orbit", "Volume Rendering")
	if err != nil {
		t.Fatal(err)
	}
	collectOrbit(t, db, "Volume Rendering", 5)
	if db.Len() != 5 {
		t.Fatalf("collected %d images, want 5", db.Len())
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	checkOrbit(t, dir, 5)
}

func TestOrbitLoopCollectsRaytrace(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "orbit", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	collectOrbit(t, db, "Ray Tracing", 4)
	if db.Len() != 4 {
		t.Fatalf("collected %d images, want 4", db.Len())
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	checkOrbit(t, dir, 4)
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("missing index accepted")
	}
}

func TestAddFailsOnUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	db, err := New(dir, "x", "Ray Tracing")
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the database.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	im := render.NewImage(4, 4)
	if err := db.Add(0, 0, im); err == nil {
		t.Error("Add into a removed directory succeeded")
	}
	// A caller may drop Add's error; Finalize must still surface it.
	if err := db.Finalize(); err == nil {
		t.Error("Finalize hid the failed image write")
	}
}

func TestLoadRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt index accepted")
	}
}
