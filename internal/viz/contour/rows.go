package contour

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// RowRange is the value range of a row of a field: the least and the
// greatest of its values, NaN ignored; {+Inf, -Inf} when it has none.
type RowRange struct{ Min, Max float64 }

// RangeOf returns the range of vals.
func RangeOf(vals []float64) RowRange {
	r := RowRange{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		if v < r.Min {
			r.Min = v
		}
		if v > r.Max {
			r.Max = v
		}
	}
	return r
}

// holds reports whether iso lies in [Min, Max].
func (r RowRange) holds(iso float64) bool { return r.Min <= iso && iso <= r.Max }

// Rows is a field's row index: entry j + (Dims[1]-1)·k is the range of
// the corner values of x-row (j, k) of cells, the cells that share j and
// k. A cell crosses iso only when one of its corners is >= iso and one is
// <= iso (mesh.CellWalk.Masks; a NaN corner is neither), and both corners
// belong to its row, so a row whose range does not hold iso has no
// crossed cell: the contour count passes skip it whole, exactly.
type Rows []RowRange

// CellRows builds g's row index from the ranges of its x-rows of points,
// pointRows[j + Dims[1]·k] for the row (j, k). Cell row (j, k) has the
// corners of point rows (j, k), (j+1, k), (j, k+1) and (j+1, k+1).
func CellRows(g *mesh.UniformGrid, pointRows []RowRange) Rows {
	ny, nz := g.Dims[1]-1, g.Dims[2]-1
	rows := make(Rows, ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			r := RowRange{Min: math.Inf(1), Max: math.Inf(-1)}
			for _, p := range [4]int{0, 1, g.Dims[1], g.Dims[1] + 1} {
				pr := pointRows[j+g.Dims[1]*k+p]
				r.Min = min(r.Min, pr.Min)
				r.Max = max(r.Max, pr.Max)
			}
			rows[j+ny*k] = r
		}
	}
	return rows
}

// indexRows builds field's row index in one parallel pass over its rows
// of points. Like the count passes it is this host's sizing, not the
// paper's kernel, and records no operations.
func indexRows(g *mesh.UniformGrid, field []float64, pool *par.Pool) Rows {
	nx := g.Dims[0]
	pointRows := make([]RowRange, g.Dims[1]*g.Dims[2])
	pool.For(len(pointRows), 0, func(lo, hi, _ int) {
		for r := lo; r < hi; r++ {
			pointRows[r] = RangeOf(field[r*nx : (r+1)*nx])
		}
	})
	return CellRows(g, pointRows)
}
