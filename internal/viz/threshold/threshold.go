// Package threshold implements the study's threshold algorithm: it
// iterates over every cell in the data set and keeps exactly the cells
// whose scalar lies in a specified range, removing the rest. It is the
// most purely data-bound of the eight algorithms — a streamed load and a
// compare per cell, with compaction stores for the survivors — which is
// why the paper measures it with the lowest IPC of the set.
package threshold

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the cell-centered scalar tested against the range.
	// Default "energy".
	Field string
	// Lo and Hi bound the kept range. If both are zero, the upper half
	// of the field range is kept.
	Lo, Hi float64
	// Backend, when viz.DPP, makes Result.Profile the run's DPP profile
	// (Result.DPP) instead of its traditional one; it changes nothing
	// else. Every run is priced under both formulations: this option
	// only serves callers that want the DPP price in Profile.
	Backend viz.Backend
}

// Filter is the threshold algorithm.
type Filter struct{ opts Options }

// New creates a threshold filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Threshold" }

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	cf := g.CellField(f.opts.Field)
	if cf == nil {
		return nil, fmt.Errorf("threshold: grid has no cell field %q", f.opts.Field)
	}
	lo, hi := f.opts.Lo, f.opts.Hi
	if lo == 0 && hi == 0 {
		fmin, fmax := mesh.FieldRange(cf)
		lo = fmin + 0.5*(fmax-fmin)
		hi = fmax
	}
	// Point scalars for the output carry the recentered field.
	pf, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, err
	}

	// The kept cells, counted then filled by k-layer. Every output point
	// is a grid point, named by its key (one slot, the point itself, which
	// lies in its k-plane), so each is written once, where it is first
	// emitted.
	nCells := g.NumCells()
	walk := func(lo2, hi2 int, kw *mesh.KeyWindow) (uint64, uint64) {
		cell := g.WalkCells(lo2)
		for ; cell.Cell < hi2; cell.Next() {
			if v := cf[cell.Cell]; v >= lo && v <= hi {
				kw.Hex(&cell, pf)
			}
		}
		return 0, 0
	}
	var em mesh.KeyedEmission
	em.Count(ex.Pool, g, mesh.KeySlots{N: 1, Flat: 1}, walk)
	out, _, _ := em.Fill(walk)
	// One launch, priced under both formulations from the same counts, on
	// the points a per-chunk emission writes (em.Soup).
	n, kept, pfLen, soup := uint64(nCells), uint64(em.Total.Cells), uint64(len(pf)), uint64(em.Soup.Points)
	ex.Charge(tradCost(n, kept, pfLen, soup))
	res := &viz.Result{
		Profile:  ex.Drain(),
		DPP:      dppCost(n, kept, pfLen, soup),
		Elements: int64(nCells),
		Cells:    out,
	}
	if f.opts.Backend == viz.DPP {
		res.Profile = res.DPP
	}
	return res, nil
}
