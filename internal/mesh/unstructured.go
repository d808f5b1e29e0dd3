package mesh

import "fmt"

// TriMesh is a triangle soup with a per-point scalar, the output of the
// contour and slice filters and the input of the ray tracer.
type TriMesh struct {
	Points  []Vec3
	Scalars []float64
	Tris    [][3]int32
}

// NumTris returns the triangle count.
func (m *TriMesh) NumTris() int { return len(m.Tris) }

// NumPoints returns the point count.
func (m *TriMesh) NumPoints() int { return len(m.Points) }

// Validate checks that all connectivity indices are in range.
func (m *TriMesh) Validate() error {
	if len(m.Scalars) != 0 && len(m.Scalars) != len(m.Points) {
		return fmt.Errorf("mesh: TriMesh has %d scalars for %d points", len(m.Scalars), len(m.Points))
	}
	n := int32(len(m.Points))
	for i, t := range m.Tris {
		for _, v := range t {
			if v < 0 || v >= n {
				return fmt.Errorf("mesh: triangle %d references point %d of %d", i, v, n)
			}
		}
	}
	return nil
}

// LineSet is a set of polylines with a per-point scalar, the output of the
// particle-advection filter (streamlines).
type LineSet struct {
	Points  []Vec3
	Scalars []float64
	// Offsets has one entry per polyline plus a final sentinel; polyline i
	// spans Points[Offsets[i]:Offsets[i+1]].
	Offsets []int32
}

// NewLineSet returns an empty line set ready for AppendLine.
func NewLineSet() *LineSet {
	return &LineSet{Offsets: []int32{0}}
}

// NumLines returns the polyline count.
func (l *LineSet) NumLines() int {
	if len(l.Offsets) == 0 {
		return 0
	}
	return len(l.Offsets) - 1
}

// Line returns the point indices [lo, hi) of polyline i.
func (l *LineSet) Line(i int) (lo, hi int) {
	return int(l.Offsets[i]), int(l.Offsets[i+1])
}

// AppendLine adds a polyline given its points and per-point scalars.
func (l *LineSet) AppendLine(pts []Vec3, scalars []float64) {
	l.Points = append(l.Points, pts...)
	l.Scalars = append(l.Scalars, scalars...)
	l.Offsets = append(l.Offsets, int32(len(l.Points)))
}

// TotalPoints returns the total number of polyline vertices.
func (l *LineSet) TotalPoints() int { return len(l.Points) }

// Validate checks offset monotonicity and scalar length.
func (l *LineSet) Validate() error {
	if len(l.Offsets) == 0 || l.Offsets[0] != 0 {
		return fmt.Errorf("mesh: LineSet offsets must start with 0")
	}
	for i := 1; i < len(l.Offsets); i++ {
		if l.Offsets[i] < l.Offsets[i-1] {
			return fmt.Errorf("mesh: LineSet offsets not monotone at %d", i)
		}
	}
	if int(l.Offsets[len(l.Offsets)-1]) != len(l.Points) {
		return fmt.Errorf("mesh: LineSet final offset %d != %d points", l.Offsets[len(l.Offsets)-1], len(l.Points))
	}
	if len(l.Scalars) != len(l.Points) {
		return fmt.Errorf("mesh: LineSet has %d scalars for %d points", len(l.Scalars), len(l.Points))
	}
	return nil
}

// CellType identifies the shape of an unstructured cell, mirroring the VTK
// cell types the paper's filters emit.
type CellType uint8

const (
	// Tet is a 4-point tetrahedron.
	Tet CellType = iota
	// Pyramid is a 5-point pyramid (quad base first, apex last).
	Pyramid
	// Wedge is a 6-point triangular prism.
	Wedge
	// Hex is an 8-point hexahedron in VTK ordering.
	Hex
)

// NumCellPoints returns the number of points for the cell type.
func (t CellType) NumCellPoints() int {
	switch t {
	case Tet:
		return 4
	case Pyramid:
		return 5
	case Wedge:
		return 6
	case Hex:
		return 8
	}
	return 0
}

// String returns the lower-case cell-type name.
func (t CellType) String() string {
	switch t {
	case Tet:
		return "tet"
	case Pyramid:
		return "pyramid"
	case Wedge:
		return "wedge"
	case Hex:
		return "hex"
	}
	return "unknown"
}

// UnstructuredMesh is a mixed-cell-type explicit mesh with a per-point
// scalar: the output of the threshold, clip, and isovolume filters.
type UnstructuredMesh struct {
	Points  []Vec3
	Scalars []float64
	Types   []CellType
	// Offsets has one entry per cell plus a final sentinel; cell i's
	// connectivity is Conn[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	Conn    []int32
}

// NewUnstructuredMesh returns an empty mesh: no points, no cells.
func NewUnstructuredMesh() *UnstructuredMesh {
	return &UnstructuredMesh{Offsets: []int32{0}}
}

// NumCells returns the cell count.
func (m *UnstructuredMesh) NumCells() int {
	if len(m.Offsets) == 0 {
		return 0
	}
	return len(m.Offsets) - 1
}

// Cell returns the type and connectivity of cell i. The returned slice
// aliases the mesh storage.
func (m *UnstructuredMesh) Cell(i int) (CellType, []int32) {
	return m.Types[i], m.Conn[m.Offsets[i]:m.Offsets[i+1]]
}

// Validate checks structural consistency: offsets monotone, connectivity in
// range, per-cell point counts matching the declared type.
func (m *UnstructuredMesh) Validate() error {
	if len(m.Offsets) == 0 || m.Offsets[0] != 0 {
		return fmt.Errorf("mesh: offsets must start with 0")
	}
	if len(m.Offsets)-1 != len(m.Types) {
		return fmt.Errorf("mesh: %d offsets for %d cell types", len(m.Offsets), len(m.Types))
	}
	if len(m.Scalars) != len(m.Points) {
		return fmt.Errorf("mesh: %d scalars for %d points", len(m.Scalars), len(m.Points))
	}
	np := int32(len(m.Points))
	for i := range m.Types {
		lo, hi := m.Offsets[i], m.Offsets[i+1]
		if hi < lo || int(hi) > len(m.Conn) {
			return fmt.Errorf("mesh: cell %d has invalid offsets [%d,%d)", i, lo, hi)
		}
		if int(hi-lo) != m.Types[i].NumCellPoints() {
			return fmt.Errorf("mesh: cell %d of type %s has %d points", i, m.Types[i], hi-lo)
		}
		for _, c := range m.Conn[lo:hi] {
			if c < 0 || c >= np {
				return fmt.Errorf("mesh: cell %d references point %d of %d", i, c, np)
			}
		}
	}
	if int(m.Offsets[len(m.Offsets)-1]) != len(m.Conn) {
		return fmt.Errorf("mesh: final offset != connectivity length")
	}
	return nil
}
