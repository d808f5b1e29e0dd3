package clover

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
)

// The pencil-at-a-time sweep that sweep.go replaced, kept verbatim as the
// bit-identity oracle: sweepRef, rusanov and pencilSlopesRef are the parent
// implementation with only the scratch lease (a per-chunk make here) and
// the helper names changed. stepRef is Sim.Step over sweepRef.

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
func (s *Sim) sweepRef(dir int, dt float64, pool *par.Pool, recs []ops.Recorder, ghostLo, ghostHi []GhostCell) {
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
		// Face-flux and slope buffers for one pencil (n+1 faces).
		fluxes := make([]state5, n+1)
		var slopes []state5
		if s.opts.SecondOrder {
			slopes = make([]state5, n)
		}
		for pencil := lo; pencil < hi; pencil++ {
			if s.opts.SecondOrder {
				s.pencilSlopesRef(pencil, n, cellAt, mn, mt1, mt2, slopes)
			}
			// Interior faces.
			for q := 1; q < n; q++ {
				cl := cellAt(pencil, q-1)
				cr := cellAt(pencil, q)
				l := state5{s.rho[cl], mn[cl], mt1[cl], mt2[cl], s.etot[cl]}
				r := state5{s.rho[cr], mn[cr], mt1[cr], mt2[cr], s.etot[cr]}
				if s.opts.SecondOrder {
					l = addHalfRef(l, slopes[q-1], +1)
					r = addHalfRef(r, slopes[q], -1)
					if l.rho < 1e-10 {
						l.rho = 1e-10
					}
					if r.rho < 1e-10 {
						r.rho = 1e-10
					}
				}
				fluxes[q] = rusanovRef(l, r, s.prs[cl], s.prs[cr], s.snd[cl], s.snd[cr])
			}
			// Domain ends: reflective walls (mirror the state with
			// reversed normal momentum — mass/energy flux vanish) or,
			// on the z axis of a slab subdomain, halo-exchanged ghost
			// cells from the neighboring rank.
			{
				c0 := cellAt(pencil, 0)
				in := state5{s.rho[c0], mn[c0], mt1[c0], mt2[c0], s.etot[c0]}
				if dir == 2 && ghostLo != nil {
					gc := ghostLo[pencil]
					g := state5{gc.Rho, gc.Mz, gc.Mx, gc.My, gc.E}
					fluxes[0] = rusanovRef(g, in, gc.P, s.prs[c0], gc.C, s.snd[c0])
				} else {
					ghost := in
					ghost.mn = -in.mn
					fluxes[0] = rusanovRef(ghost, in, s.prs[c0], s.prs[c0], s.snd[c0], s.snd[c0])
				}
				cn := cellAt(pencil, n-1)
				in = state5{s.rho[cn], mn[cn], mt1[cn], mt2[cn], s.etot[cn]}
				if dir == 2 && ghostHi != nil {
					gc := ghostHi[pencil]
					g := state5{gc.Rho, gc.Mz, gc.Mx, gc.My, gc.E}
					fluxes[n] = rusanovRef(in, g, s.prs[cn], gc.P, s.snd[cn], gc.C)
				} else {
					ghost := in
					ghost.mn = -in.mn
					fluxes[n] = rusanovRef(in, ghost, s.prs[cn], s.prs[cn], s.snd[cn], s.snd[cn])
				}
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

// minmodRef is the classic slope limiter: the smaller-magnitude of the two
// one-sided differences when they agree in sign, zero at extrema.
func minmodRef(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// addHalfRef shifts a cell state by ±half its limited slope, producing the
// MUSCL interface state.
func addHalfRef(u, slope state5, sign float64) state5 {
	h := 0.5 * sign
	return state5{
		rho: u.rho + h*slope.rho,
		mn:  u.mn + h*slope.mn,
		mt1: u.mt1 + h*slope.mt1,
		mt2: u.mt2 + h*slope.mt2,
		e:   u.e + h*slope.e,
	}
}

// pencilSlopesRef fills the minmod-limited slopes of the conserved variables
// along one pencil (zero slope at the walls).
func (s *Sim) pencilSlopesRef(pencil, n int, cellAt func(int, int) int, mn, mt1, mt2 []float64, slopes []state5) {
	get := func(q int) state5 {
		c := cellAt(pencil, q)
		return state5{s.rho[c], mn[c], mt1[c], mt2[c], s.etot[c]}
	}
	slopes[0] = state5{}
	slopes[n-1] = state5{}
	prev := get(0)
	cur := get(1)
	for q := 1; q < n-1; q++ {
		next := get(q + 1)
		slopes[q] = state5{
			rho: minmodRef(cur.rho-prev.rho, next.rho-cur.rho),
			mn:  minmodRef(cur.mn-prev.mn, next.mn-cur.mn),
			mt1: minmodRef(cur.mt1-prev.mt1, next.mt1-cur.mt1),
			mt2: minmodRef(cur.mt2-prev.mt2, next.mt2-cur.mt2),
			e:   minmodRef(cur.e-prev.e, next.e-cur.e),
		}
		prev, cur = cur, next
	}
}

// stepRef is Sim.Step with every sweep through sweepRef.
func (s *Sim) stepRef(pool *par.Pool, recs []ops.Recorder) {
	maxSpeed := s.eosAndSpeeds(pool, recs)
	if maxSpeed <= 0 || math.IsNaN(maxSpeed) {
		maxSpeed = 1
	}
	dt := s.DT(maxSpeed)
	s.sweepRef(0, dt, pool, recs, nil, nil)
	s.refreshEOS(pool, recs)
	s.sweepRef(1, dt, pool, recs, nil, nil)
	s.refreshEOS(pool, recs)
	s.sweepRef(2, dt, pool, recs, nil, nil)
	s.FinishStep(dt)
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
	for _, second := range []bool{false, true} {
		for _, n := range []int{2, 3, 8, 12, 17, 32, 40} {
			if (testing.Short() || raceDetector) && n > 17 {
				continue
			}
			opts := Options{SecondOrder: second}
			want, err := New(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle's result does not depend on the worker count
			// (TestStepDeterministicAcrossWorkerCounts), so one run serves.
			refPool := par.NewPool(2)
			wantRecs := make([]ops.Recorder, refPool.Workers())
			for i := 0; i < steps; i++ {
				want.stepRef(refPool, wantRecs)
			}
			refPool.Close()
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("second=%v/n=%d/workers=%d", second, n, workers), func(t *testing.T) {
					got, err := New(n, opts)
					if err != nil {
						t.Fatal(err)
					}
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
}

// TestSweepHaloMatchesOracle drives the ghost-cell z sweep of a slab
// subdomain directly: a thin slab (fewer layers than workers), halo cells
// on either or both ends.
func TestSweepHaloMatchesOracle(t *testing.T) {
	const n = 12
	pool := par.NewPool(3)
	defer pool.Close()
	for _, slab := range [][2]int{{4, 9}, {5, 6}, {0, 3}, {10, 12}} {
		got, err := NewSlab(n, slab[0], slab[1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSlab(n, slab[0], slab[1], Options{})
		dt := got.DT(got.MaxSignalSpeed(pool, nil))
		want.MaxSignalSpeed(pool, nil)
		got.SweepXY(dt, pool, nil)
		want.sweepRef(0, dt, pool, nil, nil, nil)
		want.refreshEOS(pool, nil)
		want.sweepRef(1, dt, pool, nil, nil, nil)
		want.refreshEOS(pool, nil)
		// Any valid states serve as halo cells: use the slab's own
		// boundary layers, crossed over.
		var gLo, gHi []GhostCell
		lo, hi := got.ZBoundary()
		if slab[0] > 0 {
			gLo = hi
		}
		if slab[1] < n {
			gHi = lo
		}
		got.SweepZ(dt, pool, nil, gLo, gHi)
		want.sweepRef(2, dt, pool, nil, gLo, gHi)
		requireSameBits(t, got, want)
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
