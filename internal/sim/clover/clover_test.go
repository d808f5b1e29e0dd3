package clover

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
)

func newSim(t testing.TB, n int) *Sim {
	t.Helper()
	s, err := New(n, Options{})
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return s
}

func TestNewRejectsTinyGrids(t *testing.T) {
	if _, err := New(1, Options{}); err == nil {
		t.Error("accepted 1-cell grid")
	}
}

func TestInitialDeck(t *testing.T) {
	s := newSim(t, 16)
	if s.NumCells() != 16*16*16 {
		t.Fatalf("NumCells = %d", s.NumCells())
	}
	// Corner cell is in the energetic region: rho=1.0, e=2.5.
	if got := s.rho[s.idx(0, 0, 0)]; got != 1.0 {
		t.Errorf("source density = %v, want 1.0", got)
	}
	if got := s.etot[s.idx(0, 0, 0)]; !almostEq(got, 2.5, 1e-12) {
		t.Errorf("source total energy = %v, want 2.5", got)
	}
	// Far corner is ambient: rho=0.2, e=1.0 -> etot = 0.2.
	far := s.idx(15, 15, 15)
	if got := s.rho[far]; got != 0.2 {
		t.Errorf("ambient density = %v, want 0.2", got)
	}
	if got := s.etot[far]; !almostEq(got, 0.2, 1e-12) {
		t.Errorf("ambient total energy = %v, want 0.2", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConservation(t *testing.T) {
	s := newSim(t, 12)
	pool := par.NewPool(2)
	m0 := s.TotalMass()
	e0 := s.TotalEnergy()
	s.Run(25, pool, nil)
	m1 := s.TotalMass()
	e1 := s.TotalEnergy()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %.3e after 25 steps", rel)
	}
	if rel := math.Abs(e1-e0) / e0; rel > 1e-12 {
		t.Errorf("energy drift %.3e after 25 steps", rel)
	}
}

func TestPositivityAndFiniteness(t *testing.T) {
	s := newSim(t, 10)
	pool := par.NewPool(3)
	s.Run(50, pool, nil)
	if s.MinDensity() <= 0 {
		t.Errorf("density went non-positive: %v", s.MinDensity())
	}
	for c, r := range s.rho {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("cell %d density = %v", c, r)
		}
		if math.IsNaN(s.etot[c]) {
			t.Fatalf("cell %d energy NaN", c)
		}
	}
}

func TestShockActuallyPropagates(t *testing.T) {
	s := newSim(t, 16)
	pool := par.NewPool(2)
	probe := s.idx(10, 10, 10) // outside the initial source box
	before := s.etot[probe]
	s.Run(120, pool, nil)
	after := s.etot[probe]
	if almostEq(before, after, 1e-9) {
		t.Errorf("energy at probe unchanged (%v); shock did not propagate", after)
	}
	if s.Time() <= 0 {
		t.Errorf("Time = %v, want > 0", s.Time())
	}
	if s.StepCount() != 120 {
		t.Errorf("StepCount = %d, want 120", s.StepCount())
	}
}

func TestStepDeterministicAcrossWorkerCounts(t *testing.T) {
	a := newSim(t, 8)
	b := newSim(t, 8)
	a.Run(10, par.NewPool(1), nil)
	b.Run(10, par.NewPool(4), nil)
	for c := range a.rho {
		if a.rho[c] != b.rho[c] || a.etot[c] != b.etot[c] {
			t.Fatalf("cell %d differs between worker counts: rho %v vs %v", c, a.rho[c], b.rho[c])
		}
	}
}

func TestStepRecordsOps(t *testing.T) {
	s := newSim(t, 8)
	pool := par.NewPool(2)
	var p ops.Profile
	s.Step(pool, &p)
	if p.Flops == 0 || p.TotalLoadBytes() == 0 || p.TotalStoreBytes() == 0 {
		t.Errorf("profile missing work: %+v", p)
	}
	if p.WorkingSetBytes == 0 {
		t.Error("working set not recorded")
	}
	// Strided traffic must appear (y/z sweeps).
	if p.LoadBytes[ops.Strided] == 0 {
		t.Error("no strided traffic recorded for y/z sweeps")
	}
}

func TestStepNilPoolDefaults(t *testing.T) {
	s := newSim(t, 4)
	dt := s.Step(nil, nil)
	if dt <= 0 {
		t.Errorf("dt = %v, want > 0", dt)
	}
}

func TestGridExport(t *testing.T) {
	s := newSim(t, 8)
	pool := par.NewPool(2)
	s.Run(10, pool, nil)
	g, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != s.NumCells() {
		t.Fatalf("grid cells = %d, want %d", g.NumCells(), s.NumCells())
	}
	// Exactly the arrays the filters read: threshold's cell energy, the
	// other scalar filters' point energy, advection's velocity.
	want := []string{"cell energy", "point energy", "vector velocity"}
	if names := g.FieldNames(); !slices.Equal(names, want) {
		t.Fatalf("grid fields = %v, want %v", names, want)
	}
	vel := g.PointVector("velocity")
	// The shock gives some nonzero velocity somewhere.
	moving := false
	for _, v := range vel {
		if v.Norm() > 1e-6 {
			moving = true
			break
		}
	}
	if !moving {
		t.Error("velocity field identically zero after 10 steps")
	}
	// Energy field has spatial structure (source vs ambient).
	lo, hi := mesh.FieldRange(g.CellField("energy"))
	if hi-lo < 0.1 {
		t.Errorf("energy field range [%v,%v] too flat", lo, hi)
	}
}

// TestExportedFieldsMatchState: the cell energy is each cell's specific
// internal energy and the point velocity the mean of the incident cells'
// m/ρ, bit for bit, by their definitions evaluated cell by cell and point
// by point, on a state the shock has set moving.
func TestExportedFieldsMatchState(t *testing.T) {
	s := newSim(t, 6)
	s.Run(5, par.NewPool(2), nil)
	g, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	energy := g.CellField("energy")
	for c := range energy {
		inv := 1 / s.rho[c]
		ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
		if want := (s.etot[c] - ke) * inv; energy[c] != want {
			t.Fatalf("cell %d energy = %v, want %v", c, energy[c], want)
		}
	}
	vel := g.PointVector("velocity")
	moving := false
	for p := range vel {
		i, j, k := g.PointIJK(p)
		var sum mesh.Vec3
		cnt := 0.0
		for kk := max(k-1, 0); kk <= min(k, s.nz-1); kk++ {
			for jj := max(j-1, 0); jj <= min(j, s.ny-1); jj++ {
				for ii := max(i-1, 0); ii <= min(i, s.nx-1); ii++ {
					c := s.idx(ii, jj, kk)
					inv := 1 / s.rho[c]
					sum = sum.Add(mesh.Vec3{s.mx[c] * inv, s.my[c] * inv, s.mz[c] * inv})
					cnt++
				}
			}
		}
		if want := sum.Scale(1 / cnt); vel[p] != want {
			t.Fatalf("point %d velocity = %v, want %v", p, vel[p], want)
		}
		moving = moving || vel[p] != mesh.Vec3{}
	}
	if !moving {
		t.Error("velocity identically zero: the check compared nothing but zeros")
	}
}

// TestSweepScratchReuse pins the sweep's pencil buffers to the pool
// scratch store: after a warm-up step, repeated sweeps must not allocate
// fresh side/flux rows per chunk.
func TestSweepScratchReuse(t *testing.T) {
	s := newSim(t, 16)
	pool := par.NewPool(1) // serial pool: no worker-goroutine noise
	dt := s.timestep(pool)
	sweepXY := func() {
		s.sweep(0, dt, pool)
		s.refreshEOS(pool)
		s.sweep(1, dt, pool)
		s.refreshEOS(pool)
	}
	sweepXY() // warm the scratch lease
	allocs := testing.AllocsPerRun(5, sweepXY)
	// refreshEOS reductions may allocate a few accumulator cells;
	// the per-chunk []state5 buffers (16 chunks x 2 sweeps) must not
	// show up.
	if allocs > 8 {
		t.Errorf("the x and y sweeps allocate %v objects/run, want scratch reuse (<= 8)", allocs)
	}
}
