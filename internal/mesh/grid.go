package mesh

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
)

// UniformGrid is a uniform rectilinear (image-data) grid of hexahedral
// cells. Dims counts points along each axis; the grid has
// (Dims[i]-1) cells along axis i. Fields are stored in x-fastest order,
// matching the layout the CloverLeaf proxy produces and the access order
// the visualization kernels stream through.
type UniformGrid struct {
	Dims    [3]int
	Origin  Vec3
	Spacing Vec3

	pointFields  map[string][]float64
	cellFields   map[string][]float64
	pointVectors map[string][]Vec3
}

// NewUniformGrid creates a grid with the given point dimensions (each must
// be >= 2), origin, and spacing (each component must be > 0).
func NewUniformGrid(dims [3]int, origin, spacing Vec3) (*UniformGrid, error) {
	for i := 0; i < 3; i++ {
		if dims[i] < 2 {
			return nil, fmt.Errorf("mesh: dims[%d] = %d, need at least 2 points per axis", i, dims[i])
		}
		if spacing[i] <= 0 || math.IsNaN(spacing[i]) || math.IsInf(spacing[i], 0) {
			return nil, fmt.Errorf("mesh: spacing[%d] = %g, need finite positive spacing", i, spacing[i])
		}
	}
	return &UniformGrid{
		Dims:         dims,
		Origin:       origin,
		Spacing:      spacing,
		pointFields:  make(map[string][]float64),
		cellFields:   make(map[string][]float64),
		pointVectors: make(map[string][]Vec3),
	}, nil
}

// NewCubeGrid creates an n×n×n-cell grid (n+1 points per axis) spanning the
// unit cube. It is the shape used throughout the paper's study (32³ … 256³
// cells).
func NewCubeGrid(nCells int) (*UniformGrid, error) {
	if nCells < 1 {
		return nil, fmt.Errorf("mesh: nCells = %d, need at least 1", nCells)
	}
	h := 1.0 / float64(nCells)
	return NewUniformGrid(
		[3]int{nCells + 1, nCells + 1, nCells + 1},
		Vec3{0, 0, 0},
		Vec3{h, h, h},
	)
}

// NumPoints returns the number of grid points.
func (g *UniformGrid) NumPoints() int { return g.Dims[0] * g.Dims[1] * g.Dims[2] }

// CellDims returns the number of cells along each axis.
func (g *UniformGrid) CellDims() [3]int {
	return [3]int{g.Dims[0] - 1, g.Dims[1] - 1, g.Dims[2] - 1}
}

// NumCells returns the number of hexahedral cells.
func (g *UniformGrid) NumCells() int {
	cd := g.CellDims()
	return cd[0] * cd[1] * cd[2]
}

// PointID returns the flat index of point (i,j,k).
func (g *UniformGrid) PointID(i, j, k int) int {
	return i + g.Dims[0]*(j+g.Dims[1]*k)
}

// PointIJK returns the (i,j,k) coordinates of a flat point index.
func (g *UniformGrid) PointIJK(id int) (i, j, k int) {
	i = id % g.Dims[0]
	id /= g.Dims[0]
	j = id % g.Dims[1]
	k = id / g.Dims[1]
	return
}

// CellID returns the flat index of cell (i,j,k).
func (g *UniformGrid) CellID(i, j, k int) int {
	cd := g.CellDims()
	return i + cd[0]*(j+cd[1]*k)
}

// CellIJK returns the (i,j,k) coordinates of a flat cell index.
func (g *UniformGrid) CellIJK(id int) (i, j, k int) {
	cd := g.CellDims()
	i = id % cd[0]
	id /= cd[0]
	j = id % cd[1]
	k = id / cd[1]
	return
}

// PointPosition returns the spatial position of a flat point index.
func (g *UniformGrid) PointPosition(id int) Vec3 {
	i, j, k := g.PointIJK(id)
	return Vec3{
		g.Origin[0] + float64(i)*g.Spacing[0],
		g.Origin[1] + float64(j)*g.Spacing[1],
		g.Origin[2] + float64(k)*g.Spacing[2],
	}
}

// cornerIJK is each VTK hexahedron corner's offset from corner 0.
var cornerIJK = [8][3]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}

// CellWalk steps through consecutive cells in id order. It keeps the
// current cell's (i, j, k) and corner-0 point id, so each cell's corners
// cost additions instead of the two integer divisions of CellIJK, and it
// hands out corners one at a time: an [8] array per cell lives on the
// stack and is copied wholesale, which stalls on store forwarding. Those
// two were most of the cost of a classification pass. Walk the cells
// [lo, hi) with
//
//	w := g.WalkCells(lo)
//	for ; w.Cell < hi; w.Next() { … }
//
// and not with w declared in the for clause: that makes w a
// per-iteration variable, and the walk is copied twice every cell.
type CellWalk struct {
	Cell    int // current cell id
	I, J, K int // its (i, j, k), which are also its corner 0's
	P       int // its corner 0's point id
	g       *UniformGrid
	off     [8]int // corner point ids relative to P
}

// WalkCells starts a walk at cell.
func (g *UniformGrid) WalkCells(cell int) CellWalk {
	i, j, k := g.CellIJK(cell)
	w := CellWalk{Cell: cell, I: i, J: j, K: k, P: g.PointID(i, j, k), g: g}
	for c, d := range cornerIJK {
		w.off[c] = d[0] + g.Dims[0]*(d[1]+g.Dims[1]*d[2])
	}
	return w
}

// Next moves to the next cell id.
func (w *CellWalk) Next() {
	w.Cell++
	w.P++
	if w.I++; w.I == w.g.Dims[0]-1 {
		w.I = 0
		w.P++
		if w.J++; w.J == w.g.Dims[1]-1 {
			w.J = 0
			w.K++
			w.P += w.g.Dims[0]
		}
	}
}

// Point returns the point id of the current cell's corner c.
func (w *CellWalk) Point(c int) int { return w.P + w.off[c] }

// Corner returns the position of the current cell's corner c, bit-equal
// to PointPosition of its point id.
func (w *CellWalk) Corner(c int) Vec3 {
	g, d := w.g, cornerIJK[c]
	return Vec3{
		g.Origin[0] + float64(w.I+d[0])*g.Spacing[0],
		g.Origin[1] + float64(w.J+d[1])*g.Spacing[1],
		g.Origin[2] + float64(w.K+d[2])*g.Spacing[2],
	}
}

// Masks classifies the current cell against [lo, hi] in one pass over
// its corner values in a point field: bit c of ge is set when corner c's
// value is >= lo, of le when it is <= hi. Masks instead of the corners'
// min and max cost no data-dependent branch: ge == 0 is "max < lo",
// le == 0 is "min > hi", 0xFF is "every corner".
func (w *CellWalk) Masks(field []float64, lo, hi float64) (ge, le uint8) {
	for c := 0; c < 8; c++ {
		v := field[w.Point(c)]
		ge |= bit(v >= lo) << c
		le |= bit(v <= hi) << c
	}
	return ge, le
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// CellCenter returns the centroid of a cell.
func (g *UniformGrid) CellCenter(cell int) Vec3 {
	i, j, k := g.CellIJK(cell)
	return Vec3{
		g.Origin[0] + (float64(i)+0.5)*g.Spacing[0],
		g.Origin[1] + (float64(j)+0.5)*g.Spacing[1],
		g.Origin[2] + (float64(k)+0.5)*g.Spacing[2],
	}
}

// Bounds returns the spatial bounding box of the grid.
func (g *UniformGrid) Bounds() Bounds {
	hi := Vec3{
		g.Origin[0] + float64(g.Dims[0]-1)*g.Spacing[0],
		g.Origin[1] + float64(g.Dims[1]-1)*g.Spacing[1],
		g.Origin[2] + float64(g.Dims[2]-1)*g.Spacing[2],
	}
	return Bounds{Lo: g.Origin, Hi: hi}
}

// AddPointField allocates (or replaces) a point-centered scalar field and
// returns its storage.
func (g *UniformGrid) AddPointField(name string) []float64 {
	f := make([]float64, g.NumPoints())
	g.pointFields[name] = f
	return f
}

// AddCellField allocates (or replaces) a cell-centered scalar field and
// returns its storage.
func (g *UniformGrid) AddCellField(name string) []float64 {
	f := make([]float64, g.NumCells())
	g.cellFields[name] = f
	return f
}

// AddPointVector allocates (or replaces) a point-centered vector field and
// returns its storage.
func (g *UniformGrid) AddPointVector(name string) []Vec3 {
	f := make([]Vec3, g.NumPoints())
	g.pointVectors[name] = f
	return f
}

// PointField returns the named point field, or nil if absent.
func (g *UniformGrid) PointField(name string) []float64 { return g.pointFields[name] }

// CellField returns the named cell field, or nil if absent.
func (g *UniformGrid) CellField(name string) []float64 { return g.cellFields[name] }

// PointVector returns the named point vector field, or nil if absent.
func (g *UniformGrid) PointVector(name string) []Vec3 { return g.pointVectors[name] }

// FieldNames lists every array g holds, one "cell name", "point name"
// or "vector name" each, sorted.
func (g *UniformGrid) FieldNames() []string {
	var names []string
	for n := range g.cellFields {
		names = append(names, "cell "+n)
	}
	for n := range g.pointFields {
		names = append(names, "point "+n)
	}
	for n := range g.pointVectors {
		names = append(names, "vector "+n)
	}
	slices.Sort(names)
	return names
}

// FieldRange returns the min and max of a scalar slice. It returns
// (+Inf, -Inf) for an empty slice.
func FieldRange(f []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// EnsurePointField returns the named point field, recentering a cell
// field of the same name (CellToPoint) when there is none.
func (g *UniformGrid) EnsurePointField(name string) ([]float64, error) {
	if pf := g.pointFields[name]; pf != nil {
		return pf, nil
	}
	return g.CellToPoint(name)
}

// CellToPoint recenters a cell field onto the points by averaging the cells
// incident to each point (the standard VTK recenter operation; the paper's
// contour/slice/isovolume consume point fields while CloverLeaf produces
// cell-centered energy). The result is stored as a point field with the
// same name and also returned. It runs on the default pool, and each
// point's average is its own, so the result is the same on every pool.
func (g *UniformGrid) CellToPoint(name string) ([]float64, error) {
	cf := g.cellFields[name]
	if cf == nil {
		return nil, fmt.Errorf("mesh: no cell field %q", name)
	}
	pf := g.recenter(cf)
	g.pointFields[name] = pf
	return pf, nil
}

// recenter is CellToPoint's arithmetic without the store: it reads g's
// geometry and cf and writes nothing but the slice it returns, so it is
// safe on a grid other goroutines are reading. It fills one point plane
// per iteration.
func (g *UniformGrid) recenter(cf []float64) []float64 {
	pf := make([]float64, g.NumPoints())
	cd := g.CellDims()
	par.Default().For(g.Dims[2], 0, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			k0, k1 := max(k-1, 0), min(k, cd[2]-1)
			for j := 0; j < g.Dims[1]; j++ {
				j0, j1 := max(j-1, 0), min(j, cd[1]-1)
				for i := 0; i < g.Dims[0]; i++ {
					i0, i1 := max(i-1, 0), min(i, cd[0]-1)
					sum, n := 0.0, 0
					for kk := k0; kk <= k1; kk++ {
						for jj := j0; jj <= j1; jj++ {
							for ii := i0; ii <= i1; ii++ {
								sum += cf[g.CellID(ii, jj, kk)]
								n++
							}
						}
					}
					pf[g.PointID(i, j, k)] = sum / float64(n)
				}
			}
		}
	})
	return pf
}
