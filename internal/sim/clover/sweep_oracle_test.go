package clover

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
)

// The pencil-at-a-time sweep that sweep.go replaced, kept verbatim as the
// bit-identity oracle: sweepRef and rusanovRef are the parent
// implementation with only the scratch lease (a per-chunk make here), the
// helper names, the slab subdomains' halo branch and the MUSCL option gone.
// stepRef is Sim.Step over sweepRef.

// rusanovRef computes the Rusanov (local Lax–Friedrichs) flux between two
// states. mn is momentum normal to the face; mt1/mt2 are transverse.
func rusanovRef(l, r state5, pl, pr, cl, cr float64) state5 {
	ul := l.mn / l.rho
	ur := r.mn / r.rho
	fl := state5{
		rho: l.mn,
		mn:  l.mn*ul + pl,
		mt1: l.mt1 * ul,
		mt2: l.mt2 * ul,
		e:   (l.e + pl) * ul,
	}
	fr := state5{
		rho: r.mn,
		mn:  r.mn*ur + pr,
		mt1: r.mt1 * ur,
		mt2: r.mt2 * ur,
		e:   (r.e + pr) * ur,
	}
	sl := math.Abs(ul) + cl
	sr := math.Abs(ur) + cr
	smax := math.Max(sl, sr)
	return state5{
		rho: 0.5*(fl.rho+fr.rho) - 0.5*smax*(r.rho-l.rho),
		mn:  0.5*(fl.mn+fr.mn) - 0.5*smax*(r.mn-l.mn),
		mt1: 0.5*(fl.mt1+fr.mt1) - 0.5*smax*(r.mt1-l.mt1),
		mt2: 0.5*(fl.mt2+fr.mt2) - 0.5*smax*(r.mt2-l.mt2),
		e:   0.5*(fl.e+fr.e) - 0.5*smax*(r.e-l.e),
	}
}

// sweepRef performs one dimensionally-split update along axis dir (0,1,2)
// with timestep dt. Pencils along the sweep axis are independent, so the
// loop over pencils is the parallel dimension.
func (s *Sim) sweepRef(dir int, dt float64, pool *par.Pool, recs []ops.Recorder) {
	lambda := dt / s.h
	var n, nPencils int
	switch dir {
	case 0:
		n, nPencils = s.nx, s.ny*s.nz
	case 1:
		n, nPencils = s.ny, s.nx*s.nz
	default:
		n, nPencils = s.nz, s.nx*s.ny
	}

	// Map pencil index and position along the axis to a cell index.
	cellAt := func(pencil, q int) int {
		switch dir {
		case 0:
			return s.idx(q, pencil%s.ny, pencil/s.ny)
		case 1:
			return s.idx(pencil%s.nx, q, pencil/s.nx)
		default:
			return s.idx(pencil%s.nx, pencil/s.nx, q)
		}
	}
	// Select normal/transverse momentum components for the sweep axis.
	var mn, mt1, mt2 []float64
	switch dir {
	case 0:
		mn, mt1, mt2 = s.mx, s.my, s.mz
	case 1:
		mn, mt1, mt2 = s.my, s.mx, s.mz
	default:
		mn, mt1, mt2 = s.mz, s.mx, s.my
	}

	pattern := ops.Stream
	if dir != 0 {
		pattern = ops.Strided
	}

	pool.For(nPencils, 0, func(lo, hi, worker int) {
		// Face-flux buffer for one pencil (n+1 faces).
		fluxes := make([]state5, n+1)
		for pencil := lo; pencil < hi; pencil++ {
			// Interior faces.
			for q := 1; q < n; q++ {
				cl := cellAt(pencil, q-1)
				cr := cellAt(pencil, q)
				l := state5{s.rho[cl], mn[cl], mt1[cl], mt2[cl], s.etot[cl]}
				r := state5{s.rho[cr], mn[cr], mt1[cr], mt2[cr], s.etot[cr]}
				fluxes[q] = rusanovRef(l, r, s.prs[cl], s.prs[cr], s.snd[cl], s.snd[cr])
			}
			// Domain ends: reflective walls (mirror the state with
			// reversed normal momentum — mass/energy flux vanish).
			{
				c0 := cellAt(pencil, 0)
				in := state5{s.rho[c0], mn[c0], mt1[c0], mt2[c0], s.etot[c0]}
				ghost := in
				ghost.mn = -in.mn
				fluxes[0] = rusanovRef(ghost, in, s.prs[c0], s.prs[c0], s.snd[c0], s.snd[c0])
				cn := cellAt(pencil, n-1)
				in = state5{s.rho[cn], mn[cn], mt1[cn], mt2[cn], s.etot[cn]}
				ghost = in
				ghost.mn = -in.mn
				fluxes[n] = rusanovRef(in, ghost, s.prs[cn], s.prs[cn], s.snd[cn], s.snd[cn])
			}
			// Conservative update.
			for q := 0; q < n; q++ {
				c := cellAt(pencil, q)
				s.rho[c] -= lambda * (fluxes[q+1].rho - fluxes[q].rho)
				mn[c] -= lambda * (fluxes[q+1].mn - fluxes[q].mn)
				mt1[c] -= lambda * (fluxes[q+1].mt1 - fluxes[q].mt1)
				mt2[c] -= lambda * (fluxes[q+1].mt2 - fluxes[q].mt2)
				s.etot[c] -= lambda * (fluxes[q+1].e - fluxes[q].e)
				if s.rho[c] < 1e-10 {
					s.rho[c] = 1e-10
				}
			}
			if recs != nil {
				rec := &recs[worker]
				nc := uint64(n)
				// Per cell: 7 field loads for flux, 5 stores on update,
				// ~55 flops in rusanov + update, a few branches.
				rec.Loads(nc*7*8, pattern)
				rec.Stores(nc*5*8, pattern)
				rec.Flops(nc * 55)
				rec.Branches(nc * 2)
			}
		}
	})
}

// stepRef is Sim.Step with every sweep through sweepRef.
func (s *Sim) stepRef(pool *par.Pool, recs []ops.Recorder) {
	dt := s.timestep(pool, recs)
	s.sweepRef(0, dt, pool, recs)
	s.refreshEOS(pool, recs)
	s.sweepRef(1, dt, pool, recs)
	s.refreshEOS(pool, recs)
	s.sweepRef(2, dt, pool, recs)
	s.time += dt
	s.step++
	if len(recs) > 0 {
		recs[0].WorkingSet(uint64(s.NumCells()) * 7 * 8)
	}
}

// fields lists the seven state arrays for cell-by-cell comparison.
func (s *Sim) fields() map[string][]float64 {
	return map[string][]float64{
		"rho": s.rho, "mx": s.mx, "my": s.my, "mz": s.mz, "etot": s.etot, "prs": s.prs, "snd": s.snd,
	}
}

// requireSameBits fails unless got and want agree bit for bit in every
// cell of every state array (a NaN only has to be a NaN in both).
func requireSameBits(t *testing.T, got, want *Sim) {
	t.Helper()
	wantFields := want.fields()
	for name, g := range got.fields() {
		w := wantFields[name]
		for c := range w {
			if math.IsNaN(g[c]) && math.IsNaN(w[c]) {
				continue
			}
			if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
				t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", name, c,
					g[c], math.Float64bits(g[c]), w[c], math.Float64bits(w[c]))
			}
		}
	}
}

// TestSweepMatchesOracle holds the row-blocked sweep to the pencil loop it
// replaced: state, clock and operation profile bit-identical after 25
// steps. The sizes put rows below rowBlock (every y block), z chunks above
// it and not a multiple of it (n = 40 on one worker: 200 = 128 + 72), y
// chunks that begin and end mid-plane (n = 17, 12 on 3 workers) and the
// two-cell pencil whose every cell touches a wall.
func TestSweepMatchesOracle(t *testing.T) {
	const steps = 25
	for _, n := range []int{2, 3, 8, 12, 17, 32, 40} {
		if (testing.Short() || raceDetector) && n > 17 {
			continue
		}
		want := newSim(t, n)
		// The oracle's result does not depend on the worker count
		// (TestStepDeterministicAcrossWorkerCounts), so one run serves.
		refPool := par.NewPool(2)
		wantRecs := make([]ops.Recorder, refPool.Workers())
		for i := 0; i < steps; i++ {
			want.stepRef(refPool, wantRecs)
		}
		refPool.Close()
		for workers := 1; workers <= 4; workers++ {
			// "second=false" names the first-order scheme, the only one
			// the sweep has; the cases keep the names they were listed
			// under when a second-order arm ran beside them.
			t.Run(fmt.Sprintf("second=false/n=%d/workers=%d", n, workers), func(t *testing.T) {
				got := newSim(t, n)
				pool := par.NewPool(workers)
				defer pool.Close()
				recs := make([]ops.Recorder, pool.Workers())
				got.Run(steps, pool, recs)
				requireSameBits(t, got, want)
				if math.Float64bits(got.Time()) != math.Float64bits(want.Time()) {
					t.Errorf("time %v, oracle %v", got.Time(), want.Time())
				}
				if g, w := ops.Merge(recs), ops.Merge(wantRecs); g != w {
					t.Errorf("profile %+v, oracle %+v", g, w)
				}
			})
		}
	}
}

// TestSweepPoisonedCell checks that a NaN spreads exactly as under the
// oracle — through the signal-speed maximum to both faces of the cell, one
// neighbor per sweep — and leaves every other cell bit-identical.
func TestSweepPoisonedCell(t *testing.T) {
	const n = 8
	pool := par.NewPool(2)
	defer pool.Close()
	got, want := newSim(t, n), newSim(t, n)
	got.Run(3, pool, nil)
	for i := 0; i < 3; i++ {
		want.stepRef(pool, nil)
	}
	poisoned := got.idx(3, 4, 2)
	got.etot[poisoned] = math.NaN()
	want.etot[poisoned] = math.NaN()
	got.Run(2, pool, nil)
	for i := 0; i < 2; i++ {
		want.stepRef(pool, nil)
	}
	requireSameBits(t, got, want) // a NaN on one side only fails here
	nans := 0
	for _, r := range got.rho {
		if math.IsNaN(r) {
			nans++
		}
	}
	if nans < 7 || nans == n*n*n {
		t.Errorf("%d NaN cells after two steps, want the poison to have spread but not everywhere", nans)
	}
}
