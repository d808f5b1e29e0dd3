package mesh

import (
	"fmt"
	"math"
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

// CellPoints returns the flat point ids of a cell's eight corners in VTK
// hexahedron order: the k-plane quad (counter-clockwise) followed by the
// k+1-plane quad.
func (g *UniformGrid) CellPoints(cell int) [8]int {
	i, j, k := g.CellIJK(cell)
	p := g.PointID(i, j, k)
	nx := g.Dims[0]
	nxy := g.Dims[0] * g.Dims[1]
	return [8]int{
		p,
		p + 1,
		p + 1 + nx,
		p + nx,
		p + nxy,
		p + 1 + nxy,
		p + 1 + nx + nxy,
		p + nx + nxy,
	}
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

// PointFieldNames returns the names of all point scalar fields.
func (g *UniformGrid) PointFieldNames() []string {
	names := make([]string, 0, len(g.pointFields))
	for n := range g.pointFields {
		names = append(names, n)
	}
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
// same name and also returned.
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
// safe on a grid other goroutines are reading.
func (g *UniformGrid) recenter(cf []float64) []float64 {
	pf := make([]float64, g.NumPoints())
	cd := g.CellDims()
	for k := 0; k < g.Dims[2]; k++ {
		k0, k1 := k-1, k
		if k0 < 0 {
			k0 = 0
		}
		if k1 > cd[2]-1 {
			k1 = cd[2] - 1
		}
		for j := 0; j < g.Dims[1]; j++ {
			j0, j1 := j-1, j
			if j0 < 0 {
				j0 = 0
			}
			if j1 > cd[1]-1 {
				j1 = cd[1] - 1
			}
			for i := 0; i < g.Dims[0]; i++ {
				i0, i1 := i-1, i
				if i0 < 0 {
					i0 = 0
				}
				if i1 > cd[0]-1 {
					i1 = cd[0] - 1
				}
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
	return pf
}
