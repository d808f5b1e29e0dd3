package clover

import (
	"math"

	"repro/internal/ops"
	"repro/internal/par"
)

// rowBlock is the most adjacent pencils a y or z sweep advances together.
// Their cells at one position along the sweep axis are contiguous in x, so
// a block streams along the axis one unit-stride row at a time; two rows of
// sides and two of fluxes (30 KB at 128) stay cache-resident.
const rowBlock = 128

// state5 is the five conserved quantities in sweep orientation: mn is the
// momentum along the sweep axis, mt1/mt2 the transverse components.
type state5 struct{ rho, mn, mt1, mt2, e float64 }

// side is a state as a face sees it from one of its two sides: the
// conserved variables plus everything the Rusanov flux derives from that
// state alone — the physical flux F(U) (whose mass component is mn itself)
// and the signal speed |u|+c. A cell shows the same side to
// both its faces, so it is computed once per cell, not once per face.
type side struct {
	state5
	fmn, fmt1, fmt2, fe float64
	s                   float64
}

// set makes d the side of a state with pressure p and sound speed c. The
// hot passes hand over and store scalars: a five-field struct is not
// register-allocated, so a side built as a value costs a block copy per cell.
func (d *side) set(rho, mn, mt1, mt2, e, p, c float64) {
	v := mn / rho
	d.rho, d.mn, d.mt1, d.mt2, d.e = rho, mn, mt1, mt2, e
	d.fmn = mn*v + p
	d.fmt1 = mt1 * v
	d.fmt2 = mt2 * v
	d.fe = (e + p) * v
	d.s = math.Abs(v) + c
}

// faces fills f[i] with the Rusanov (local Lax–Friedrichs) flux between
// l[i] and r[i]. The builtin max propagates a NaN signal speed.
func faces(f []state5, l, r []side) {
	l, r = l[:len(f)], r[:len(f)]
	for i := range f {
		f, l, r := &f[i], &l[i], &r[i]
		hs := 0.5 * max(l.s, r.s)
		f.rho = 0.5*(l.mn+r.mn) - hs*(r.rho-l.rho)
		f.mn = 0.5*(l.fmn+r.fmn) - hs*(r.mn-l.mn)
		f.mt1 = 0.5*(l.fmt1+r.fmt1) - hs*(r.mt1-l.mt1)
		f.mt2 = 0.5*(l.fmt2+r.fmt2) - hs*(r.mt2-l.mt2)
		f.e = 0.5*(l.fe+r.fe) - hs*(r.e-l.e)
	}
}

// sweepKernel is one sweep's view of the state: the field arrays in sweep
// orientation and the passes over contiguous runs of cells that pencil and
// rows are assembled from. Every pass is a unit-stride loop.
type sweepKernel struct {
	rho, mn, mt1, mt2, e []float64
	prs, snd             []float64
	lambda               float64 // dt/h
}

// centred fills dst with the cell-centred sides of the cells from c on.
func (k *sweepKernel) centred(dst []side, c int) {
	n := len(dst)
	rho, mn, mt1, mt2, e := k.rho[c:][:n], k.mn[c:][:n], k.mt1[c:][:n], k.mt2[c:][:n], k.e[c:][:n]
	prs, snd := k.prs[c:][:n], k.snd[c:][:n]
	for i := range dst {
		dst[i].set(rho[i], mn[i], mt1[i], mt2[i], e[i], prs[i], snd[i])
	}
}

// wall fills dst with what lies beyond a domain end whose boundary cells
// start at c: a reflective wall, the boundary cell itself with reversed
// normal momentum, so mass and energy flux vanish.
func (k *sweepKernel) wall(dst []side, c int) {
	for i := range dst {
		j := c + i
		dst[i].set(k.rho[j], -k.mn[j], k.mt1[j], k.mt2[j], k.e[j], k.prs[j], k.snd[j])
	}
}

// update applies the conservative update to the cells from c on, given the
// fluxes through their lower and upper faces.
func (k *sweepKernel) update(c int, fLo, fHi []state5) {
	n := len(fLo)
	fHi = fHi[:n]
	rho, mn, mt1, mt2, e := k.rho[c:][:n], k.mn[c:][:n], k.mt1[c:][:n], k.mt2[c:][:n], k.e[c:][:n]
	lambda := k.lambda
	for i := range fLo {
		lo, hi := &fLo[i], &fHi[i]
		r := rho[i] - lambda*(hi.rho-lo.rho)
		if r < 1e-10 {
			r = 1e-10
		}
		rho[i] = r
		mn[i] -= lambda * (hi.mn - lo.mn)
		mt1[i] -= lambda * (hi.mt1 - lo.mt1)
		mt2[i] -= lambda * (hi.mt2 - lo.mt2)
		e[i] -= lambda * (hi.e - lo.e)
	}
}

// pencil advances one x pencil, the n contiguous cells from base: every
// cell's sides once, then every face, then every cell's update.
func (k *sweepKernel) pencil(ss *sweepScratch, base, n int) {
	f := ss.flux[0][:n+1]
	sides, ghost := ss.side[0][:n], ss.side[1][:1]
	k.centred(sides, base)
	k.wall(ghost, base)
	faces(f[:1], ghost, sides)
	faces(f[1:n], sides, sides[1:])
	k.wall(ghost, base+n-1)
	faces(f[n:], sides[n-1:], ghost)
	k.update(base, f[:n], f[1:])
}

// rows advances w ≤ rowBlock adjacent y or z pencils together. Their cells
// at position q along the axis are the contiguous run from base+q*stride,
// so the block streams along the axis a row at a time: the sides of row q,
// the faces between rows q-1 and q, then the update of row q-1, whose old
// state nothing reads any more.
func (k *sweepKernel) rows(ss *sweepScratch, base, w, stride, n int) {
	fLo, fHi := ss.flux[0][:w], ss.flux[1][:w]
	// carry holds the sides row q-1 shows row q; cur is built for row q.
	carry, cur := ss.side[0][:w], ss.side[1][:w]
	k.centred(carry, base)
	k.wall(cur, base)
	faces(fLo, cur, carry)
	for q := 1; q < n; q++ {
		c := base + q*stride
		k.centred(cur, c)
		faces(fHi, carry, cur)
		k.update(c-stride, fLo, fHi)
		fLo, fHi = fHi, fLo
		carry, cur = cur, carry
	}
	last := base + (n-1)*stride
	k.wall(cur, last)
	faces(fHi, carry, cur)
	k.update(last, fLo, fHi)
}

// sweep performs one dimensionally-split update along axis dir (0,1,2)
// with timestep dt. Pencils along the sweep axis are independent, so the
// loop over pencils is the parallel dimension; a chunk of x pencils is
// walked pencil by pencil, a chunk of y or z pencils in row blocks (a y
// chunk may begin and end mid-plane; its blocks also end with their x row,
// where the next pencil's cells stop being adjacent).
func (s *Sim) sweep(dir int, dt float64, pool *par.Pool, recs []ops.Recorder) {
	k := sweepKernel{
		rho: s.rho, e: s.etot, prs: s.prs, snd: s.snd,
		lambda: dt / s.h,
	}
	nx, plane := s.nx, s.nx*s.ny
	var n, nPencils int
	switch dir {
	case 0:
		n, nPencils = s.nx, s.ny*s.nz
		k.mn, k.mt1, k.mt2 = s.mx, s.my, s.mz
	case 1:
		n, nPencils = s.ny, s.nx*s.nz
		k.mn, k.mt1, k.mt2 = s.my, s.mx, s.mz
	default:
		n, nPencils = s.nz, plane
		k.mn, k.mt1, k.mt2 = s.mz, s.mx, s.my
	}

	// The recorded pattern describes the modeled CloverLeaf kernel on the
	// paper's Broadwell node, whose y and z sweeps walk strided pencils —
	// it is what the cpu model prices, not this host's row traversal.
	pattern := ops.Stream
	if dir != 0 {
		pattern = ops.Strided
	}

	pool.For(nPencils, 0, func(lo, hi, worker int) {
		// Side and flux rows are leased from the pool's scratch store so
		// the three sweeps of every step reuse warm allocations.
		ss, _ := pool.GetScratch(sweepScratchKey{}).(*sweepScratch)
		if ss == nil {
			ss = &sweepScratch{}
		}
		ss.grow(max(rowBlock, nx+1))
		switch dir {
		case 0:
			for p := lo; p < hi; p++ {
				k.pencil(ss, p*nx, n)
			}
		case 1:
			for p, w := lo, 0; p < hi; p += w {
				i := p % nx
				w = min(rowBlock, nx-i, hi-p)
				k.rows(ss, p/nx*plane+i, w, nx, n)
			}
		default:
			for p, w := lo, 0; p < hi; p += w {
				w = min(rowBlock, hi-p)
				k.rows(ss, p, w, plane, n)
			}
		}
		pool.PutScratch(sweepScratchKey{}, ss)
		if recs != nil {
			rec := &recs[worker]
			nc := uint64(hi-lo) * uint64(n)
			// Per cell: 7 field loads for flux, 5 stores on update,
			// ~55 flops in the flux + update, a few branches.
			rec.Loads(nc*7*8, pattern)
			rec.Stores(nc*5*8, pattern)
			rec.Flops(nc * 55)
			rec.Branches(nc * 2)
		}
	})
}

// sweepScratch holds the per-chunk side and flux rows of sweep, leased from
// the worker pool's scratch store across sweeps and steps. A row is as long
// as a row block or a whole x pencil with its two wall faces.
type sweepScratch struct {
	side [2][]side
	flux [2][]state5
}

// grow sizes the rows for n cells; the simulations sharing a pool may
// differ in edge length.
func (ss *sweepScratch) grow(n int) {
	if len(ss.flux[0]) >= n {
		return
	}
	for i := range ss.side {
		ss.side[i] = make([]side, n)
	}
	for i := range ss.flux {
		ss.flux[i] = make([]state5, n)
	}
}

// sweepScratchKey keys sweepScratch leases in the pool scratch store.
type sweepScratchKey struct{}
