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
// and the signal speed |u|+c. A first-order cell shows the same side to
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

func (d *side) setState(u state5, p, c float64) { d.set(u.rho, u.mn, u.mt1, u.mt2, u.e, p, c) }

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
	second               bool    // MUSCL reconstruction
}

func (k *sweepKernel) at(c int) state5 {
	return state5{k.rho[c], k.mn[c], k.mt1[c], k.mt2[c], k.e[c]}
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

// ghost fills dst with what lies beyond a domain end whose boundary cells
// start at c: the neighboring rank's halo cells g (z axis of a slab
// subdomain), or for a nil g a reflective wall — the boundary cell itself
// with reversed normal momentum, so mass and energy flux vanish.
func (k *sweepKernel) ghost(dst []side, g []GhostCell, c int) {
	if g != nil {
		for i := range dst {
			gc := &g[i]
			dst[i].set(gc.Rho, gc.Mz, gc.Mx, gc.My, gc.E, gc.P, gc.C)
		}
		return
	}
	for i := range dst {
		j := c + i
		dst[i].set(k.rho[j], -k.mn[j], k.mt1[j], k.mt2[j], k.e[j], k.prs[j], k.snd[j])
	}
}

// muscl fills minus and plus with the sides the cells from c on show their
// lower and upper neighbor (stride cells away) under minmod-limited linear
// reconstruction; end marks the first and last cell of a pencil, whose
// slope is zero.
func (k *sweepKernel) muscl(minus, plus []side, c, stride int, end bool) {
	for i := range minus {
		u := k.at(c + i)
		var slope state5
		if !end {
			lo, hi := k.at(c+i-stride), k.at(c+i+stride)
			slope = state5{
				rho: minmod(u.rho-lo.rho, hi.rho-u.rho),
				mn:  minmod(u.mn-lo.mn, hi.mn-u.mn),
				mt1: minmod(u.mt1-lo.mt1, hi.mt1-u.mt1),
				mt2: minmod(u.mt2-lo.mt2, hi.mt2-u.mt2),
				e:   minmod(u.e-lo.e, hi.e-u.e),
			}
		}
		minus[i].setState(addHalf(u, slope, -1), k.prs[c+i], k.snd[c+i])
		plus[i].setState(addHalf(u, slope, +1), k.prs[c+i], k.snd[c+i])
	}
}

// minmod is the classic slope limiter: the smaller-magnitude of the two
// one-sided differences when they agree in sign, zero at extrema.
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// addHalf shifts a cell state by ±half its limited slope, producing the
// MUSCL interface state (density floored like the update's).
func addHalf(u, slope state5, sign float64) state5 {
	h := 0.5 * sign
	r := state5{
		rho: u.rho + h*slope.rho,
		mn:  u.mn + h*slope.mn,
		mt1: u.mt1 + h*slope.mt1,
		mt2: u.mt2 + h*slope.mt2,
		e:   u.e + h*slope.e,
	}
	if r.rho < 1e-10 {
		r.rho = 1e-10
	}
	return r
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
	minus := ss.side[0][:n] // the sides facing the lower neighbor
	plus := minus           // the sides facing the upper neighbor
	// The walls reflect the cell-centred end states.
	lo, hi, g := minus[:1], minus[n-1:], ss.side[1][:1]
	if k.second {
		plus = ss.side[1][:n]
		k.muscl(minus[:1], plus[:1], base, 1, true)
		k.muscl(minus[1:n-1], plus[1:n-1], base+1, 1, false)
		k.muscl(minus[n-1:], plus[n-1:], base+n-1, 1, true)
		lo, hi, g = ss.side[2][:1], ss.side[2][1:2], ss.side[2][2:3]
		k.centred(lo, base)
		k.centred(hi, base+n-1)
	} else {
		k.centred(minus, base)
	}
	k.ghost(g, nil, base)
	faces(f[:1], g, lo)
	faces(f[1:n], plus, minus[1:])
	k.ghost(g, nil, base+n-1)
	faces(f[n:], hi, g)
	k.update(base, f[:n], f[1:])
}

// rows advances w ≤ rowBlock adjacent y or z pencils together. Their cells
// at position q along the axis are the contiguous run from base+q*stride,
// so the block streams along the axis a row at a time: the sides of row q,
// the faces between rows q-1 and q, then the update of row q-1, whose old
// state nothing reads any more. gLo and gHi are the block's halo cells, nil
// at a wall.
func (k *sweepKernel) rows(ss *sweepScratch, base, w, stride, n int, gLo, gHi []GhostCell) {
	fLo, fHi := ss.flux[0][:w], ss.flux[1][:w]
	// carry holds the sides row q-1 shows row q; cur is built for row q.
	carry, cur := ss.side[0][:w], ss.side[1][:w]
	var minus []side
	k.centred(carry, base)
	k.ghost(cur, gLo, base)
	faces(fLo, cur, carry)
	if k.second {
		minus = ss.side[2][:w]
		k.muscl(minus, carry, base, stride, true)
	}
	for q := 1; q < n; q++ {
		c := base + q*stride
		if k.second {
			k.muscl(minus, cur, c, stride, q == n-1)
			faces(fHi, carry, minus)
		} else {
			k.centred(cur, c)
			faces(fHi, carry, cur)
		}
		k.update(c-stride, fLo, fHi)
		fLo, fHi = fHi, fLo
		carry, cur = cur, carry
	}
	last := base + (n-1)*stride
	if k.second {
		k.centred(carry, last) // the wall reflects the cell-centred state
	}
	k.ghost(cur, gHi, last)
	faces(fHi, carry, cur)
	k.update(last, fLo, fHi)
}

// sweep performs one dimensionally-split update along axis dir (0,1,2)
// with timestep dt. Pencils along the sweep axis are independent, so the
// loop over pencils is the parallel dimension; a chunk of x pencils is
// walked pencil by pencil, a chunk of y or z pencils in row blocks (a y
// chunk may begin and end mid-plane; its blocks also end with their x row,
// where the next pencil's cells stop being adjacent). ghostLo/ghostHi are
// the z-sweep halo layers of a slab subdomain.
func (s *Sim) sweep(dir int, dt float64, pool *par.Pool, recs []ops.Recorder, ghostLo, ghostHi []GhostCell) {
	k := sweepKernel{
		rho: s.rho, e: s.etot, prs: s.prs, snd: s.snd,
		lambda: dt / s.h, second: s.opts.SecondOrder,
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
				k.rows(ss, p/nx*plane+i, w, nx, n, nil, nil)
			}
		default:
			for p, w := lo, 0; p < hi; p += w {
				w = min(rowBlock, hi-p)
				var gLo, gHi []GhostCell
				if ghostLo != nil {
					gLo = ghostLo[p : p+w]
				}
				if ghostHi != nil {
					gHi = ghostHi[p : p+w]
				}
				k.rows(ss, p, w, plane, n, gLo, gHi)
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
	side [3][]side // only MUSCL uses the third
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
