// Package histogram implements a histogram filter — a data-analysis
// workload added beyond the paper's eight algorithms (its future work asks
// for more of the in situ analysis ecosystem to be classified). A
// fixed-bin histogram of a cell field is the archetypal streaming
// reduction: one load, a scale, and an increment per cell, nothing else.
// The classification puts it in the power-opportunity class.
package histogram

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the cell scalar histogrammed. Default "energy".
	Field string
	// Bins is the bin count. Default 64.
	Bins int
}

// Filter is the histogram extension filter.
type Filter struct{ opts Options }

// New creates a histogram filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	if opts.Bins <= 0 {
		opts.Bins = 64
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Histogram" }

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	cf := g.CellField(f.opts.Field)
	if cf == nil {
		return nil, fmt.Errorf("histogram: grid has no cell field %q", f.opts.Field)
	}
	lo, hi := mesh.FieldRange(cf)
	if lo > hi {
		lo, hi = 0, 0 // no finite values: +Inf counts in the last bin, the rest in the first
	}
	width := (hi - lo) / float64(f.opts.Bins)
	if width <= 0 {
		width = 1
	}
	inv := 1 / width
	bins := f.opts.Bins

	counts := par.Reduce(ex.Pool, len(cf), 0,
		func() []int64 { return make([]int64, bins) },
		func(lo2, hi2 int, acc []int64) []int64 {
			for c := lo2; c < hi2; c++ {
				// Clamped before the conversion, which is undefined for
				// ±Inf and NaN; those go to the end bins, NaN to the first.
				b := 0
				switch x := (cf[c] - lo) * inv; {
				case x >= float64(bins):
					b = bins - 1
				case x > 0:
					b = int(x)
				}
				acc[b]++
			}
			return acc
		},
		func(a, b []int64) []int64 {
			for i := range a {
				a[i] += b[i]
			}
			return a
		},
	)
	ex.Charge(cost(uint64(len(cf)), uint64(bins)))

	return &viz.Result{
		Profile:   ex.Drain(),
		Elements:  int64(len(cf)),
		Histogram: counts,
	}, nil
}
