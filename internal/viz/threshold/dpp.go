package threshold

import (
	"repro/internal/dpp"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// This file is the data-parallel-primitive formulation of the threshold
// kernel: a flag pass marks the in-range cells, dpp.Compact (flag →
// scan → scatter) produces the compacted survivor list, a pass over the
// survivors counts each GrainFixed chunk's output, and the emit pass
// writes every chunk at its scanned offsets with fill, the traditional
// formulation's fill. Per Bethel et al. (arXiv 2010.02361) this is how a
// DPP library (VTK-m/Thrust) expresses threshold; the two formulations
// differ in count granularity (per cell here, per chunk there) and in
// what they account for.
//
// Bit-identity with the traditional backend follows from the shared
// fill: both deduplicate corners per GrainFixed chunk in first-touch
// order, so points, scalars, connectivity, and cell order all match
// exactly at every worker count.

// lowerBound returns the first index of a whose value is >= v.
func lowerBound(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runDPP executes the flag → compact formulation over the prepared cell
// field and point carry field.
func runDPP(g *mesh.UniformGrid, cf, pf []float64, lo, hi float64, ex *viz.Exec) (*viz.Result, error) {
	nCells := g.NumCells()
	flags := make([]int32, nCells)
	survivors := make([]int32, nCells)

	// Pass 1 (flag): one streamed load and compare per cell.
	ex.Pool.For(nCells, 0, func(lo2, hi2, _ int) {
		for cell := lo2; cell < hi2; cell++ {
			if v := cf[cell]; v >= lo && v <= hi {
				flags[cell] = 1
			} else {
				flags[cell] = 0
			}
		}
	})

	// Compact: flag → scan → scatter yields the survivor cell ids in
	// ascending order.
	kept := dpp.Compact(ex.Pool, flags, survivors)
	surv := survivors[:kept]

	// Pass 2 (count): per GrainFixed chunk, the survivors it holds and
	// the unique corner points they touch.
	wins := make([]mesh.PointWindow, ex.Pool.Workers())
	em := mesh.Count(ex.Pool, nCells, par.GrainFixed(nCells), func(lo2, hi2, worker int) mesh.Sizes {
		win := &wins[worker]
		win.Reset(g, lo2, hi2)
		s0, s1 := lowerBound(surv, int32(lo2)), lowerBound(surv, int32(hi2))
		at := mesh.Sizes{Cells: s1 - s0, Conn: 8 * (s1 - s0)}
		for _, id := range surv[s0:s1] {
			cell := g.WalkCells(int(id))
			at.Points += win.Mark(&cell)
		}
		return at
	})

	// Pass 3 (emit): every chunk at its scanned offsets; a surviving
	// cell's output slot is its position in the survivor list.
	out := em.Cells()
	em.Fill(func(lo2, hi2, worker int, at mesh.Sizes) (mesh.Sizes, uint64) {
		return fill(g, cf, pf, lo, hi, lo2, hi2, &wins[worker], out, at), 0
	})
	ex.Charge(dppCost(uint64(nCells), uint64(kept), uint64(len(pf)), uint64(em.Total.Points)))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
